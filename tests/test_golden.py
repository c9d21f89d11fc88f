"""Byte-identical guard on the command-line reports.

`golden/manifest.json` lists each command with its expected exit code; the
expected stdout is `golden/out/<name>.out`. The commands cover `verify` in
both formats on the shipped fixtures, on the cyclic-product documents with
m = 2..8 and on the XOR-product document with m = 4, and in text on the
cyclic-product documents with m = 12 and 16 and the XOR-product document
with m = 8 (all in `golden/docs/`, with fixed numeric values), plus `demo`,
`pair` and `operator`, the last also on single-variable documents whose
induced groups are S5 and D48, so that regular representations of order 120
and 96 are built, and the spin suite: `spin` at r = 1/2 and 5/2 and `verify`
of the two-bit document with `spin_suite` on, in both formats. The outputs
were recorded before the pair chain was refactored (m = 8 before the
commutant moved to the character norm and the thin SVD, S5 and D48 before
the representation check moved to generators, the spin cases before
operators were built by one function, the structured spin-suite report
before the planar check became an array comparison, m = 12, 16 and XOR
m = 8 before groups were built from their generator columns); a mismatch is
a change in behaviour to be fixed in the code, not in the recorded file.

Eight text cases cover the exits of the chain that no case above reaches,
recorded before the chain became a list of stages: the two-bit fixture with
`--max-order 2` (`group-axioms` fails) and 4 (`joint-group` fails) and with
`--tolerance 0.9` (`well-defined-extension` not evaluated) and 0.6
(`coset-labels` fails on an overlap inside the tolerance band; recorded when
that outcome first ended in a report), and variants of it in
`golden/docs/`: K generated by a 4-cycle (`permissibility` fails,
`joint-group` skipped), no `numeric_values` (`operator-construction`
skipped), bit1 with the numeric values [1, 1] (`maximality-nondegeneracy`
fails, `transition-unitarity` skipped) and k given as the generator word
"flip1 flip2" (`relatedness` fails). One `operator` case covers the same
overlap at `--tolerance 0.6`: the operator is not constructed, and the
command says why on stdout.

Three cases were recorded when every group product came to read the group's
Cayley table: `verify` in both formats on the one-point document
`cyclic_m1.json`, whose N has one element and whose swap matrix is the
identity of an irreducible base (23 checks pass), and `operator` with
`--max-order 5040` on `symmetric_n7.json`, whose induced group S7 has a
Cayley table above its byte bound: the operator is not constructed, and the
command says why on stdout.

One case holds a malformed document: `verify` on a copy of the two-bit
fixture whose `group_K.names` is 0, recorded when only an absent or null
`names` came to get the default names. It exits 1 with the schema message
on stderr and nothing on stdout.

One structured case holds non-finite numbers: `verify` on a copy of the
two-bit fixture with both variables' numeric values [-1.7e308, 1.7e308],
recorded when the structured report came to spell a non-finite number as
the string the text report prints for it. Four covariance residuals are
"inf"; every other byte is as the report before that change printed it.

One case was recorded when the extension came to be decided from the
defining relations of the joined group: `verify` on the two-bit fixture with
`--tolerance 1e-15`, which extends, passes 26 checks and skips 4 (exit 0).
Before, the rounding of one five-letter word failed `well-defined-extension`
there; the report is the one printed before at `--tolerance 2e-15`, but for
its tolerance line.

Two cases were recorded before K came to be the one group closed, G read
off K's closure and N built in closed form: `verify` in both formats on
`symmetric3_product.json`, the product document of S3 acting on itself by
left multiplication on each axis, with a transposition and a 3-cycle per
axis and k the swap. It is the one document whose G inside a pair is not
abelian. N has 72 elements, and the extension fails at element 12 with the
words (5, 0) and (0, 5), so N's numbering and its words are pinned on a
non-abelian G. Both gave the same bytes at one and at two BLAS threads.

A separate test keeps the set whole: unique case names,
one output per case and no file in `out/` or `docs/` that no case uses.
Another runs every case under a profiler and finds every function of the
package called, so that `src/` holds only what a command runs.
"""

import ast
import json
import sys
from pathlib import Path

import pytest

from cvhilbert import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_output_matches_golden(case, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)   # reports name the document by its relative path
    code = cli.main(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit_code"]
    assert out.encode("utf-8") == (GOLDEN / "out" / f"{case['name']}.out").read_bytes()


def test_golden_set_is_consistent():
    # each case names one output file, and each file in the set is used
    names = [c["name"] for c in CASES]
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    recorded = {p.stem for p in (GOLDEN / "out").glob("*.out")}
    assert sorted(recorded - set(names)) == []      # output no case names
    assert sorted(set(names) - recorded) == []      # case without its output
    used = {(ROOT / arg).resolve() for c in CASES for arg in c["argv"]}
    assert sorted(p.name for p in (GOLDEN / "docs").iterdir() if p.resolve() not in used) == []


# Functions no golden command calls, each kept for a stated reason.
UNREACHED = {
    # the paper's coarsening result, checked by test_acceptance.py
    "spectra.operator_for_coarsening",
    "spectra.EigenSystem.projectors",
}


def _defs(package: Path) -> dict:
    """{(file, first line): "module.qualified.name"} for every def in the
    package, methods and nested functions included. The first line is that
    of the first decorator, as in the function's code object."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = f"{path.stem}.{name}"
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), "")
    return found


def test_every_function_is_reached(monkeypatch, capsys):
    # only which functions run is recorded, not what they print, so the
    # verdict does not depend on the numerical outcome of any case
    monkeypatch.chdir(ROOT)
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        cli._build_parser()     # runs once at import, before the profile
        for case in CASES:
            cli.main(case["argv"])
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    called = {(str(Path(f).resolve()), line) for f, line in called}
    defs = _defs(Path(cli.__file__).resolve().parent)
    assert UNREACHED <= set(defs.values())
    assert sorted(name for key, name in defs.items()
                  if key not in called and name not in UNREACHED) == []
