"""The three workloads: fixed command lists with a pinned outcome per command.

A command is one `cvhilbert` invocation. Its pin fixes the exit code and,
for `verify`, the status of every check id the pin names; a check the pin
does not name may pass or skip but must not fail. An `operator` pin also
requires the printed eigenvalues to equal the sorted distinct numeric values,
and a `spin` pin the dimension 2r+1 and an overall pass.

Known negative outcomes of the construction are pinned as expected results:
the cyclic-product ladder fails `well-defined-extension` at m = 3, 4, 5, 7
and `irreducibility` (commutant dimension 5 and 7) plus `coset-labels` at
m = 6, 8; the XOR-product document with m = 4 has a reducible joined
representation (commutant dimension 3) and 24 obstructed covariance records.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

import docs

WORKLOADS = ("small-docs", "cyclic-ladder", "operator-catalogue")

# The command whose fastest latency is reported as `largest_s`.
LARGEST = {
    "small-docs": "verify xor4 structured",
    "cyclic-ladder": "verify cyclic m=8",
    "operator-catalogue": "operator S5",
}

_CHECK_LINE = re.compile(r"^\[\s*\d+\] (PASS|FAIL|SKIP) (\S+)\s+anchor=\S+(.*)$")


@dataclass(frozen=True)
class Pin:
    exit_code: int
    statuses: dict[str, str] = field(default_factory=dict)
    details: dict[str, str] = field(default_factory=dict)   # substring of the check's detail
    eigenvalues: tuple[float, ...] | None = None           # operator: sorted distinct values
    group_order: int | None = None                         # operator: induced group order
    spin_dim: int | None = None                            # spin: 2r + 1


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    pin: Pin


def _obstructed(ts) -> dict[str, str]:
    """Covariance records reported as skipped for a scalar collision."""
    return {f"conjugation-covariance[0][t={t}]": "skip" for t in ts}


TWO_BIT_STATUSES = {
    **_obstructed((2, 4, 6, 7)),
    "irreducibility[0]": "pass",
    "transition-unitarity[0]": "pass",
}
CORRUPTED_STATUSES = {
    "permissibility[bit1]": "fail",
    "induced-group[bit1]": "skip",
    "relatedness[0]": "fail",
}
XOR4_OBSTRUCTED = tuple(t for t in range(32) if t not in (0, 1, 2, 3, 7, 11, 15, 19))
XOR4_STATUSES = {
    "irreducibility[0]": "fail",
    "operator-construction[0]": "pass",
    **_obstructed(XOR4_OBSTRUCTED),
}


def _cyclic_pin(m: int) -> Pin:
    if m == 2:
        return Pin(0, dict(TWO_BIT_STATUSES), {"irreducibility[0]": "commutant_dim=1"})
    if m in (6, 8):
        return Pin(2, {"irreducibility[0]": "fail", "coset-labels[0]": "fail"},
                   {"irreducibility[0]": f"commutant_dim={m - 1}"})
    return Pin(2, {"well-defined-extension[0]": "fail"})


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _verify_both(name: str, path: str, pin: Pin) -> list[Command]:
    return [Command(f"verify {name} {fmt}", ("verify", path, "--format", fmt), pin)
            for fmt in ("text", "structured")]


def build(workload: str, root: Path, workdir: Path, seed: int) -> list[Command]:
    """Generate the workload's documents into `workdir` and list its commands.

    The seed draws only the numeric values of generated documents; the
    shipped fixtures are used as they are.
    """
    rng = random.Random(seed)
    if workload == "small-docs":
        two_bit = "fixtures/two_bit.json"
        spin_doc = json.loads((root / two_bit).read_text(encoding="utf-8"))
        spin_doc["options"]["spin_suite"] = True
        two_bit_pin = Pin(0, dict(TWO_BIT_STATUSES), {"irreducibility[0]": "commutant_dim=1"})
        return (
            _verify_both("two_bit", two_bit, two_bit_pin)
            + _verify_both("two_bit_corrupted", "fixtures/two_bit_corrupted.json",
                           Pin(2, dict(CORRUPTED_STATUSES)))
            + _verify_both("xor4", _write(workdir, "xor4", docs.xor_product(4, rng)),
                           Pin(2, dict(XOR4_STATUSES), {"irreducibility[0]": "commutant_dim=3"}))
            + _verify_both("two_bit_spin", _write(workdir, "two_bit_spin", spin_doc),
                           Pin(0, {**TWO_BIT_STATUSES, "full-rotation-witness": "pass"},
                               {"irreducibility[0]": "commutant_dim=1"}))
        )
    if workload == "cyclic-ladder":
        return [
            Command(f"verify cyclic m={m}",
                    ("verify", _write(workdir, f"cyclic{m}", docs.cyclic_product(m, rng))),
                    _cyclic_pin(m))
            for m in range(2, 9)
        ]
    if workload == "operator-catalogue":
        cmds = []
        for label, doc, order in (
            ("S4", docs.symmetric(4, rng), 24),
            ("S5", docs.symmetric(5, rng), 120),
            ("D16", docs.dihedral(16, rng), 32),
            ("D32", docs.dihedral(32, rng), 64),
            ("D48", docs.dihedral(48, rng), 96),
        ):
            values = tuple(sorted(set(doc["variables"][0]["numeric_values"])))
            cmds.append(Command(
                f"operator {label}",
                ("operator", _write(workdir, label, doc), "--variable", "v"),
                Pin(0, eigenvalues=values, group_order=order)))
        for twice_r in range(1, 26):
            cmds.append(Command(f"spin r={twice_r / 2}", ("spin", "--r", str(twice_r / 2)),
                                Pin(0, spin_dim=twice_r + 1)))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def _checks(cmd: Command, out: str) -> dict[str, tuple[str, str]]:
    """check id -> (status, detail) from a text or structured verify report."""
    if "structured" in cmd.argv:
        return {c["id"]: (c["status"], c["detail"] or "") for c in json.loads(out)["checks"]}
    found = {}
    for line in out.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            found[m.group(2)] = (m.group(1).lower(), m.group(3))
    return found


def _line_value(out: str, prefix: str) -> str | None:
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    return None


def outcome(cmd: Command, out: str) -> dict:
    """The pinned parts of one command's stdout, in a seed-independent form."""
    kind = cmd.argv[0]
    if kind == "verify":
        return {cid: status for cid, (status, _) in _checks(cmd, out).items()}
    if kind == "operator":
        return {"order": _line_value(out, "induced group order:"),
                "eigenvalue_count": len((_line_value(out, "eigenvalues:") or "").split())}
    return {"dimension": _line_value(out, "dimension:"),
            "summary": _line_value(out, "summary:")}


def problems(cmd: Command, exit_code: int, out: str) -> list[str]:
    """Every way the command's exit code and stdout differ from its pin."""
    pin = cmd.pin
    found = []
    if exit_code != pin.exit_code:
        found.append(f"exit code {exit_code}, pinned {pin.exit_code}")
    kind = cmd.argv[0]
    try:
        if kind == "verify":
            checks = _checks(cmd, out)
            if not checks:
                found.append("no checks in the report")
            for cid, want in pin.statuses.items():
                got = checks.get(cid, ("missing", ""))[0]
                if got != want:
                    found.append(f"{cid}: {got}, pinned {want}")
            for cid, text in pin.details.items():
                if text not in checks.get(cid, ("", ""))[1]:
                    found.append(f"{cid}: detail lacks {text!r}")
            for cid, (status, _) in checks.items():
                if status == "fail" and cid not in pin.statuses:
                    found.append(f"{cid}: unpinned check fails")
        elif kind == "operator":
            if _line_value(out, "induced group order:") != str(pin.group_order):
                found.append(f"induced group order is not {pin.group_order}")
            printed = [float(v) for v in (_line_value(out, "eigenvalues:") or "").split()]
            want = pin.eigenvalues
            scale = max(1.0, max(abs(v) for v in want))
            if len(printed) != len(want) or any(
                    abs(a - b) > 1e-9 * scale for a, b in zip(printed, want)):
                found.append(f"eigenvalues {printed} differ from values {list(want)}")
        else:
            if _line_value(out, "dimension:") != str(pin.spin_dim):
                found.append(f"dimension is not {pin.spin_dim}")
            if _line_value(out, "summary:") != "pass":
                found.append("spin summary is not pass")
    except (ValueError, KeyError, TypeError) as exc:
        found.append(f"unparseable output: {exc!r}")
    return found
