"""Byte-identical guard on the command-line reports.

`golden/manifest.json` lists each command with its expected exit code; the
expected stdout is `golden/out/<name>.out`. The commands cover `verify` in
both formats on the shipped fixtures, on the cyclic-product documents with
m = 2..8 and on the XOR-product document with m = 4 (all in `golden/docs/`,
with fixed numeric values), plus `demo`, `pair` and `operator`, the last also
on single-variable documents whose induced groups are S5 and D48, so that
regular representations of order 120 and 96 are built, and the spin suite:
`spin` at r = 1/2 and 5/2 and `verify` of the two-bit document with
`spin_suite` on, in both formats. The outputs were recorded before the pair
chain was refactored (m = 8 before the commutant moved to the character norm
and the thin SVD, S5 and D48 before the representation check moved to
generators, the spin cases before operators were built by one function, the
structured spin-suite report before the planar check became an array
comparison); a mismatch is a change in behaviour to be fixed in the code, not
in the recorded file.
"""

import json
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
