#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 benchmark/selftest.py [WORKLOAD ...]

For each workload (all three by default) and for seeds 1 and 2 it runs one
pass without the tracer and one with it, and checks that

* every command meets its pin, and prints the same bytes traced as untraced;
* the layer self times of the traced pass sum to within 5% of its wall time;
* both seeds give the same pinned outcome for every command;
* `BENCHMARK.json` names the workloads and metrics `run.py` reports.

It prints the largest layer shares of each traced pass and exits 1 on any
failed check. One pass of `cyclic-ladder` takes about 25 s.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins the BLAS threads before numpy loads
import workloads

SELF_TIME_TOLERANCE = 0.05
SEEDS = (1, 2)


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    found = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        found.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        found.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != [
            (name, run.per_layer_unit(name)) for name in run.PER_LAYER]:
        found.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    return found


def check_workload(workload: str, np) -> list[str]:
    found = []
    outcomes = []
    for seed in SEEDS:
        workdir = run.ROOT / ".bench-work" / f"selftest-{workload}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            _, commands, cli = run.setup(workload, run.ROOT, workdir, seed)
            runner = run.Runner(cli, commands)
            plain = runner.run_pass()
            runner.tracer = run.install_tracer(np.linalg)
            try:
                traced = runner.run_pass()
            finally:
                runner.tracer.uninstall()
        finally:
            shutil.rmtree(workdir.parent)
        found += [f"{workload} seed {seed}: {f}" for f in runner.failures]
        totals = runner.tracer.aggregate(*runner.span_bounds[0])
        self_sum = sum(totals[f"{layer}.self_s"] for layer in run.LAYERS)
        gap = abs(self_sum - traced) / traced
        shares = sorted(((totals[f"{layer}.self_s"] / traced, layer) for layer in run.LAYERS),
                        reverse=True)
        print(f"{workload} seed={seed}: untraced pass {plain:.4g} s, traced pass {traced:.4g} s, "
              f"layer self-time sum {self_sum:.4g} s (gap {gap:.2%}); largest shares "
              + ", ".join(f"{layer} {share:.1%}" for share, layer in shares[:3]))
        if gap > SELF_TIME_TOLERANCE:
            found.append(f"{workload} seed {seed}: layer self times miss the traced pass "
                         f"by {gap:.2%}")
        outcomes.append({c.name: workloads.outcome(c, runner.first_out[c.name]) for c in commands})
    if outcomes[0] != outcomes[1]:
        diff = [name for name in outcomes[0] if outcomes[0][name] != outcomes[1].get(name)]
        found.append(f"{workload}: seeds {SEEDS} give different outcomes for {diff}")
    return found


def main(argv: list[str]) -> int:
    problem = run.check_checkout(run.ROOT)
    if problem:
        print(problem, file=sys.stderr)
        return 1
    os.chdir(run.ROOT)
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np

    chosen = argv or list(workloads.WORKLOADS)
    found = check_benchmark_json()
    for workload in chosen:
        found += check_workload(workload, np)
    for line in found:
        print(f"FAIL {line}")
    print("selftest: " + ("ok" if not found else f"{len(found)} problems"))
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
