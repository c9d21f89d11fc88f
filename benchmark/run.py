#!/usr/bin/env python3
"""Outside-in benchmark of the cvhilbert command line.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
`src/`, nothing is installed or compiled. One process runs one workload as a
closed loop with a single caller: `cvhilbert.cli.main(argv)` is called
in-process with stdout captured, and each command starts only after the
previous one returned. A pass runs every command of the workload once, each
pass in a new shuffled order; the seed draws only the documents' numeric
values. Passes repeat until the next one would end after `--seconds`, and
at least MIN_PASSES run (one per phase with `--trace 1`). The BLAS thread
count is pinned to BLAS_THREADS.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. With `--trace 0` the metrics are the end-to-end ones,
measured with no tracer installed. With `--trace 1` the first half of the
time runs untraced (its end-to-end figures are printed above the JSON line),
the second half runs with the tracer of `tracer.py` installed, and the
metrics are the per-layer ones; the spans are written to
`.bench-out/spans-<workload>-seed<N>.jsonl`. Lines above the JSON give the
environment, every metric with its unit, the value reported, and the median
and quartiles of its samples in the run, and the latency of each command.

End-to-end metrics: `setup_s`, the median over SETUP_REPEATS of a fresh
import of the package plus the generation of the workload's documents;
`pass_s`, the wall time of the fastest pass; `largest_s`, the fastest
latency of the workload's most expensive command (`workloads.LARGEST`);
`peak_rss_mb`, the peak resident set of the process (one workload per
process); `correct_frac`, the share of command runs with a correct result.
The report also prints `cmd_ms_p50`, the median over the commands of each
command's median latency, and `failed_frac`, which is 1 - `correct_frac`.

A command fails when it raises, when its exit code or a pinned check status
differs from its pin (see `workloads.py`), when a check the pin does not name
fails, or when the same command prints other bytes than its first run did,
with or without the tracer.
"""

from __future__ import annotations

import os
import sys

# The checkout is compiled afresh on every run, as a source checkout has no
# bytecode cache; this keeps `setup_s` the same from the first run on.
sys.dont_write_bytecode = True

# A single BLAS thread: small kernels then pay no thread wake-up, and a
# second core stays free for the rest of the machine. Set before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import importlib
import io
import json
import platform
import random
import resource
import shutil
import statistics
import time
from pathlib import Path

import workloads
from tracer import COMPUTED, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
# Every command is timed at least twice, so each timing below is the faster of
# two or more samples even when a single pass of the workload fills the run.
MIN_PASSES = 2

# The end-to-end metrics of BENCHMARK.json, reported in the JSON line.
END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "largest_s": "s",
    "peak_rss_mb": "MB",
    "correct_frac": "frac",
}
# Printed in the report only. The latency of a single small command moves by
# up to 60% between runs on a shared machine, and on cyclic-ladder each
# command runs only twice a run, so no bound of at most 25% would hold.
REPORT_ONLY = {
    "cmd_ms_p50": "ms",
    "failed_frac": "frac",
}

# Per-layer metrics, each with the end-to-end metric and workload it should move.
PER_LAYER = [
    # pass_s, largest_s and peak_rss_mb on cyclic-ladder; zero on operator-catalogue
    "linalg.svd.s", "linalg.svd.calls",
    "representations.commutant_basis.s", "representations.commutant_basis.calls",
    "representations.commutant_rows",
    # pass_s and largest_s on operator-catalogue, less so on small-docs
    "representations.verify.s", "representations.hom_pairs",
    "pairing.build_joint_representation.s", "groups.homomorphism_witness.s",
    # pass_s on cyclic-ladder once the SVD is gone, and on small-docs
    "groups.generate_permutation_group.s", "groups.build_group.s", "groups.build_action.s",
    "groups.bfs_words.s", "groups.left_cosets.s", "groups.elements",
    # cmd_ms_p50 and pass_s on small-docs
    "pairing.covariance_records.s", "pairing.transported_operator.calls",
    "pairing.joint_coset_structure.s", "spectra.eigensystem.calls", "spectra.eigensystem.s",
    "linalg.eigh.calls",
    # cmd_ms_p50 on small-docs, largest_s on operator-catalogue
    "cli.parse_context.s", "cli.emit_report.s",
    # small-docs and operator-catalogue
    "spin.planar_component_covariance.s", "variables.is_permissible.s",
    "variables.induced_group.s", "coherent.isotropy_of_state.s",
    "coherent.operator_from_variable.s",
    *[f"{layer}.{kind}" for layer in LAYERS for kind in ("self_s", "raised")],
    "trace.overhead_frac",
]
COMPUTED_COUNTERS = {counter for counter, _ in COMPUTED.values()}


def per_layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def check_checkout(root: Path) -> str | None:
    """None when `root` holds the package source and fixtures, else the problem."""
    for rel in ("src/cvhilbert/cli.py", "fixtures/two_bit.json",
                "fixtures/two_bit_corrupted.json"):
        if not (root / rel).is_file():
            return f"{rel} not found under {root}: run from a cvhilbert source checkout"
    return None


def fresh_import(root: Path):
    """Import the package from `root/src`, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "cvhilbert" or n.startswith("cvhilbert.")]:
        del sys.modules[name]
    cli = importlib.import_module("cvhilbert.cli")
    if Path(cli.__file__).resolve().parent != root / "src" / "cvhilbert":
        raise RuntimeError(f"imported cvhilbert from {cli.__file__}, not from {root / 'src'}")
    return cli


def setup(workload: str, root: Path, workdir: Path, seed: int):
    """Import the package and generate the documents, SETUP_REPEATS times.

    Returns the times, and the commands and `cvhilbert.cli` of the last
    repetition.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cli = fresh_import(root)
        commands = workloads.build(workload, root, workdir, seed)
        times.append(time.perf_counter() - t0)
    return times, commands, cli


class Runner:
    """Runs passes over one command list and checks every output.

    While `tracer` is set, `span_bounds` gets the span index range of each pass.
    """

    def __init__(self, cli, commands):
        self.cli = cli
        self.tracer: Tracer | None = None
        self.span_bounds: list[tuple[int, int]] = []
        self.commands = commands
        # The same sequence of pass orders for every seed, so that the effect
        # of a command's predecessor on its latency does not vary with the seed.
        self.order_rng = random.Random("pass-order")
        self.first_out: dict[str, str] = {}
        self.first_problems: dict[str, list[str]] = {}
        self.latency: dict[str, list[float]] = {c.name: [] for c in commands}
        self.attempted = 0
        self.failures: list[str] = []     # one note per failed command run

    def run_pass(self) -> float:
        order = list(self.commands)
        self.order_rng.shuffle(order)
        results = []
        first_span = len(self.tracer.spans) if self.tracer else 0
        start = time.perf_counter()
        for cmd in order:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(list(cmd.argv))
            except (Exception, SystemExit) as exc:   # any escape is a failed command
                code = exc
            t1 = time.perf_counter()
            results.append((cmd, code, out.getvalue(), t1 - t0))
        elapsed = time.perf_counter() - start
        if self.tracer:
            self.span_bounds.append((first_span, len(self.tracer.spans)))
        for cmd, code, out, seconds in results:
            self.latency[cmd.name].append(seconds)
            self.attempted += 1
            found = self.judge(cmd, code, out)
            if found:
                self.failures.append(f"{cmd.name}: {'; '.join(found)}")
        return elapsed

    def judge(self, cmd, code, out: str) -> list[str]:
        if not isinstance(code, int):
            return [f"raised {code!r}"]
        if cmd.name not in self.first_out:
            self.first_out[cmd.name] = out
            self.first_problems[cmd.name] = workloads.problems(cmd, code, out)
            return self.first_problems[cmd.name]
        if out != self.first_out[cmd.name]:
            return ["stdout differs from the first run of the command"]
        if code != cmd.pin.exit_code:
            return [f"exit code {code}, pinned {cmd.pin.exit_code}"]
        return self.first_problems[cmd.name]

    def timed_passes(self, seconds: float, min_passes: int) -> list[float]:
        """Passes until the next one would end after `seconds`, at least `min_passes`."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self.run_pass())
            if (len(passes) >= min_passes
                    and time.perf_counter() - start + passes[-1] > seconds):
                return passes


def end_to_end(workload: str, setup_times: list[float], passes: list[float],
               runner: Runner) -> dict:
    """name -> (value, median, q1, q3, sample count) over the run's samples.

    The timings other than `setup_s` take the fastest sample: other load on
    the machine only ever adds time, and it slows whole stretches of a run
    by up to 60%, which moves a median by far more than a code change should
    be allowed to hide behind.
    """
    per_command_ms = [statistics.median(lat) * 1e3 for lat in runner.latency.values()]
    largest = runner.latency[workloads.LARGEST[workload]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    correct = 1 - len(runner.failures) / runner.attempted
    out = {}
    for name, values, pick in (("setup_s", setup_times, statistics.median),
                               ("pass_s", passes, min),
                               ("cmd_ms_p50", per_command_ms, statistics.median),
                               ("largest_s", largest, min)):
        q1, med, q3 = quartiles(values)
        out[name] = (pick(values), med, q1, q3, len(values))
    out["peak_rss_mb"] = (rss_mb, rss_mb, rss_mb, rss_mb, 1)
    out["correct_frac"] = (correct, correct, correct, correct, runner.attempted)
    out["failed_frac"] = (1 - correct,) * 4 + (runner.attempted,)
    return out


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):     # numpy older than 1.25 has no "dicts" mode
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "load": "closed loop, one caller, in-process",
    }


def print_report(workload, args, env, e2e, runner, layer=None, passes_traced=None):
    print(f"# workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {'metric':<26} {'value':>14} {'median':>14} {'q1':>14} {'q3':>14} {'n':>6}  unit")
    for name, (value, med, q1, q3, n) in e2e.items():
        unit = END_TO_END.get(name) or REPORT_ONLY[name]
        print(f"  {name:<26} {value:>14.6g} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {n:>6}  {unit}")
    if layer is not None:
        pass_s = statistics.median(passes_traced)
        print(f"# per-layer, traced passes={len(passes_traced)}, "
              f"traced pass_s={pass_s:.6g}; share = value / traced pass_s")
        for name in PER_LAYER:
            med, q1, q3, n = layer[name]
            unit = per_layer_unit(name)
            share = f"share={med / pass_s:.3f}" if unit == "s" else ""
            tag = " (computed)" if name in COMPUTED_COUNTERS else ""
            print(f"  {name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {n:>6}  "
                  f"{unit}{tag} {share}")
    print(f"# {'command':<40} {'median_ms':>14} {'q1_ms':>14} {'q3_ms':>14} {'n':>6}")
    for name, lat in runner.latency.items():
        q1, med, q3 = quartiles([s * 1e3 for s in lat])
        print(f"  {name:<40} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {len(lat):>6}")
    for failure in runner.failures[:20]:
        print(f"# FAILED {failure}")


def install_tracer(linalg_module) -> Tracer:
    """A tracer wrapped around the loaded cvhilbert modules and numpy kernels."""
    tracer = Tracer()
    modules = {layer: sys.modules[f"cvhilbert.{layer}"] for layer in LAYERS if layer != "linalg"}
    tracer.install(modules, linalg_module, modules["representations"].UnitaryRepresentation)
    return tracer


def per_layer(tracer: Tracer, bounds: list[tuple[int, int]], overhead: float) -> dict:
    """name -> (median, q1, q3, passes) over the traced passes."""
    per_pass = [tracer.aggregate(a, b) for a, b in bounds]
    out = {}
    for name in PER_LAYER:
        if name == "trace.overhead_frac":
            out[name] = (overhead, overhead, overhead, 1)
            continue
        q1, med, q3 = quartiles([p.get(name, 0) for p in per_pass])
        out[name] = (med, q1, q3, len(per_pass))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = check_checkout(ROOT)
    if problem:
        print(problem, file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    work_root = ROOT / ".bench-work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times, commands, cli = setup(args.workload, ROOT, workdir, args.seed)
        runner = Runner(cli, commands)
        window = args.seconds / 2 if args.trace else args.seconds
        passes = runner.timed_passes(window, 1 if args.trace else MIN_PASSES)
        e2e = end_to_end(args.workload, setup_times, passes, runner)
        env = environment()
        if not args.trace:
            print_report(args.workload, args, env, e2e, runner)
            metrics = {name: {"value": e2e[name][0], "unit": unit}
                       for name, unit in END_TO_END.items()}
        else:
            runner.tracer = install_tracer(np.linalg)
            try:
                traced = runner.timed_passes(window, 1)
            finally:
                runner.tracer.uninstall()
            overhead = statistics.median(traced) / statistics.median(passes) - 1
            layer = per_layer(runner.tracer, runner.span_bounds, overhead)
            out_dir = ROOT / ".bench-out"
            out_dir.mkdir(exist_ok=True)
            runner.tracer.write(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
            print_report(args.workload, args, env, e2e, runner, layer, traced)
            metrics = {name: {"value": layer[name][0], "unit": per_layer_unit(name)}
                       for name in PER_LAYER}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    print(json.dumps({"correct": not runner.failures, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
