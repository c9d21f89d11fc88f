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
identity of an irreducible base (21 checks pass), and `operator` with
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
`--tolerance 1e-15`, which extends, passes 24 checks and skips 4 (exit 0).
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

One deliberate move regenerated every verify report (42 cases; the
operator cases, `--max-order 2` and the malformed `names` document kept
their bytes): the records that an earlier check or builder already decides
were folded into it. `action-axioms` became the `points=` of
`group-axioms`, `involution` the `k_squared_identity=` of `relatedness`
and `spin-eigen` the `dim=` of `spin-commutation`; `operator-construction`
lost the residual of its unit-variable operator, and `spin` its
`eigen relations:` line. Each new file equals the one before with those
records folded, renumbered and recounted; no verdict and no exit code moved.
One case was recorded then: `verify` on `two_bit_const_member.json`, the
two-bit fixture with a constant variable added to the maximal family, which
bit1 strictly refines, so `maximality[const]` fails and the pair chain runs
on (exit 2). It gave the same bytes at one and at two BLAS threads.

One case was recorded when a library error raised in a stage of the chain
came to be that stage's failed check, so that every `verify` ends in a
report: `verify` on `cyclic_m7.json` with `--tolerance 0.15`. The extension
passes and `irreducibility` fails (commutant_dim=6); the isotropy found at
that tolerance is not a subgroup, so `coset-labels` fails with `not closed
at (25, 25)` and the pair's chain ends there (12 checks, exit 2). Before,
that error ended the run with nothing on stdout. The swap matrix comes from
LAPACK's basis of the commutant, so making the swap matrix canonical
(ROADMAP item 1) may move this case. It was recorded at two BLAS threads
and gave the same bytes at one.

A second deliberate move regenerated 17 verify reports, each the one before
with two records removed, renumbered and recounted; no verdict and no exit
code moved. `state-injectivity` and `resolution-of-identity` were folded
into `coset-labels`, which implies both: once the cosets are labeled, their
states are the d basis vectors, one each (`pairing.joint_coset_structure`).
One case was recorded then: `verify` on `two_bit_close_values.json`, the
two-bit fixture with bit1's numeric values [0, 1e-10], a gap below the
tolerance 1e-9. bit1's operator then has one eigenvalue cluster for two
values, so `eigenvalue-value-match[0][bit1]` and
`maximality-nondegeneracy[0][bit1]` fail and `transition-unitarity[0]` is
skipped (exit 2). It gave the same bytes at one and at two BLAS threads,
before the fold and after it.

Two `operator` cases read the fiducial off a basis vector other than e_0,
so that the regular action's column f, the right products g * f, is
pinned: `dihedral_n16.json` (D16 of order 32 on a 16-gon) with
`fiducial_index` 5 and `symmetric_n4.json` (S4 of order 24 on four points)
with `fiducial_index` 23, the last basis vector. They were recorded before
the regular action came to read its columns off the group's rows, and gave
the same bytes at one and at two BLAS threads.

A third deliberate move regenerated the 8 `operator` cases that construct
their operator, each the one before without its `resolution constant:`
line, which read 1, residual 0, pass in every one: the states of a regular
action are always the d basis vectors, and those resolve the identity with
constant 1 and residual 0, so no resolution is computed any more. One case
was recorded then: `operator` on `boolean_values.json`, four points under a
4-cycle, whose variable `flag` has the values [true, 1, 0, false], four
values, as JSON has them, though Python has True == 1; its second variable,
`pair`, holds booleans inside lists. Before, both variables were refused
for too many numeric values. It gave the same bytes at one and at two BLAS
threads.

A separate test keeps the set whole: unique case names,
one output per case and no file in `out/` or `docs/` that no case uses.
Another runs every case under a profiler and finds every function of the
package called, so that `src/` holds only what a command runs. A third
traces the lines of `coherent`, `groups`, `pairing` and `variables` over
every case and finds every statement run, but those of a block that ends
in `raise`. A fourth finds
every check family failing in some report, or listed in `NEVER_FAILS` with
the reason none does.
"""

import ast
import json
import re
import sys
from pathlib import Path

import pytest

from cvhilbert import cli, coherent, groups, pairing, representations, variables

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


# Check families that fail in no recorded report, each with the reason it is
# still reported. A family that comes to fail in some report leaves the list.
NEVER_FAILS = {
    # implied by permissibility: the image of K is a group; the benchmark
    # pins its skip
    "induced-group": "implied by permissibility",
    # a fail branch that no recorded document reaches yet
    "conjugation-covariance": "fail branch not reached",
    # the benchmark pins their pass
    "operator-construction": "pinned pass",
    "transition-unitarity": "pinned pass",
    # the spin suite's self-test, the same for every document; the benchmark
    # pins the witness
    "spin-commutation": "document-independent self-test",
    "planar-covariance": "document-independent self-test",
    "full-rotation-witness": "document-independent self-test",
}
_FAILED_LINE = re.compile(r"\[\s*\d+\] FAIL (\S+)")


def _failed_families(text: str) -> set[str]:
    """The check families with a failed record in a text or structured report."""
    if text.startswith("{"):
        ids = [c["id"] for c in json.loads(text)["checks"] if c["status"] == "fail"]
    else:
        ids = [m.group(1) for m in map(_FAILED_LINE.match, text.splitlines()) if m]
    return {cid.split("[", 1)[0] for cid in ids}


def test_every_reported_family_can_fail():
    failed = set().union(*(_failed_families(p.read_text(encoding="utf-8"))
                           for p in (GOLDEN / "out").glob("*.out")))
    assert failed <= set(cli._ANCHORS)
    assert sorted(failed & set(NEVER_FAILS)) == []      # fails now: off the list
    assert sorted(set(cli._ANCHORS) - failed - set(NEVER_FAILS)) == []
    assert sorted(set(NEVER_FAILS) - set(cli._ANCHORS)) == []


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


def _statements(path: Path) -> dict:
    """{first line: source} of every statement inside a function of the
    module, docstrings left out, and the statements of a block that ends in
    `raise` left out with everything nested in them. The first line of a
    decorated def is that of its first decorator."""
    source = path.read_text(encoding="utf-8").splitlines()
    found = {}

    def block(statements, in_function):
        if statements and isinstance(statements[-1], ast.Raise):
            return
        for stmt in statements:
            docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            if in_function and not docstring:
                first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
                found[first] = source[first - 1].strip()
            inner = in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            for field in ("body", "orelse", "finalbody"):
                block(getattr(stmt, field, []), inner)
            for handler in getattr(stmt, "handlers", []):
                block(handler.body, inner)

    block(ast.parse("\n".join(source)).body, False)
    return found


def test_every_statement_is_reached(monkeypatch, capsys):
    # line events in `coherent`, `groups`, `pairing`, `representations` and
    # `variables` only, over every case: a statement that no command runs is
    # code that only tests need, unless its block ends in `raise`, a refusal
    # that a case need not reach
    monkeypatch.chdir(ROOT)
    modules = {m.__file__: Path(m.__file__).name
               for m in (coherent, groups, pairing, representations, variables)}
    ran = {name: set() for name in modules.values()}

    def trace(frame, event, arg):
        name = modules.get(frame.f_code.co_filename)
        if name is None:
            return None
        lines = ran[name]

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        for case in CASES:
            cli.main(case["argv"])
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    missed = [f"{name}:{line}: {text}" for path, name in modules.items()
              for line, text in _statements(Path(path)).items() if line not in ran[name]]
    assert missed == []
