import collections
import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvhilbert import cli, coherent, groups, pairing, representations, spectra, variables
from cvhilbert.errors import ParseError, SchemaError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TWO_BIT = str(FIXTURES / "two_bit.json")
CORRUPTED = str(FIXTURES / "two_bit_corrupted.json")
XOR4 = str(Path(__file__).resolve().parent / "golden" / "docs" / "xor_m4.json")
S5 = str(Path(__file__).resolve().parent / "golden" / "docs" / "symmetric_n5.json")
CYCLIC8 = str(Path(__file__).resolve().parent / "golden" / "docs" / "cyclic_m8.json")
CYCLIC3 = str(Path(__file__).resolve().parent / "golden" / "docs" / "cyclic_m3.json")
CYCLIC5 = str(Path(__file__).resolve().parent / "golden" / "docs" / "cyclic_m5.json")
NO_NUMERIC = str(Path(__file__).resolve().parent / "golden" / "docs" / "two_bit_no_numeric.json")
HUGE_VALUES = str(Path(__file__).resolve().parent / "golden" / "docs" / "two_bit_huge_values.json")


class TestParsing:
    def test_minimal_one_point_document(self, tmp_path):
        doc = {
            "schema_version": "1",
            "phi_space": {"size": 1},
            "group_K": {"generators": [[0]]},
            "variables": [{"name": "c", "values": [0], "numeric_values": [1.0]}],
            "maximal_family": ["c"],
            "pairs": [],
        }
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        parsed = cli.parse_context(str(path))
        assert parsed.phi_size == 1
        assert parsed.tolerance == 1e-9

    def test_two_bit_fixture_parses(self):
        doc = cli.parse_context(TWO_BIT)
        assert doc.phi_size == 4
        assert len(doc.pairs) == 1

    def test_undefined_pair_variable(self, tmp_path):
        raw = cli.two_bit_document()
        raw["pairs"][0]["theta"] = "missing"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError) as exc:
            cli.parse_context(str(path))
        assert any("missing" in v for v in exc.value.violations)

    def test_duplicate_names_rejected(self, tmp_path):
        raw = cli.two_bit_document()
        raw["variables"].append(dict(raw["variables"][0]))
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError):
            cli.parse_context(str(path))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError) as exc:
            cli.parse_context(str(path))
        assert "line" in str(exc.value)

    def test_word_resolution(self):
        raw = cli.two_bit_document()
        raw["pairs"][0]["k"] = "flip1 flip2"
        doc = cli.document_from_mapping(raw)
        # flip1 then flip2 equals the simultaneous flip
        assert doc.pairs[0].k == (3, 2, 1, 0)

    @pytest.mark.parametrize("word, perm", [("flip1 swap", (2, 0, 3, 1)),
                                            ("swap flip1", (1, 3, 0, 2)), ("", (0, 1, 2, 3))])
    def test_word_applies_its_last_factor_first(self, word, perm):
        raw = cli.two_bit_document()
        raw["group_K"] = {"generators": [[2, 3, 0, 1], [0, 2, 1, 3]], "names": ["flip1", "swap"]}
        raw["pairs"][0]["k"] = word
        assert cli.document_from_mapping(raw).pairs[0].k == perm

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",                                    # not UTF-8
        b"[" * 100_000 + b"]" * 100_000,                 # nested past the recursion limit
    ], ids=["not-utf8", "deep-nesting"])
    @pytest.mark.parametrize("command", [["verify"], ["operator", "--variable", "bit1"]])
    def test_unreadable_document_exits_one(self, tmp_path, capsys, content, command):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        assert cli.main([command[0], str(path), *command[1:]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{path}: ") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestRunVerify:
    def test_shipped_fixture_all_pass(self):
        doc = cli.parse_context(TWO_BIT)
        report = cli.run_verify(doc, "two-bit")
        assert not report.failed
        passed, failed, skipped = report.counts()
        assert failed == 0
        assert passed > 20
        cids = [c.cid for c in report.checks]
        assert "irreducibility[0]" in cids
        assert "resolution-of-identity[0]" in cids

    def test_corrupted_fixture_reports_witness(self):
        doc = cli.parse_context(CORRUPTED)
        report = cli.run_verify(doc, "corrupted")
        assert report.failed
        perm = next(c for c in report.checks if c.cid == "permissibility[bit1]")
        assert perm.status == "fail"
        assert perm.witness is not None and "k=" in perm.witness
        induced = next(c for c in report.checks if c.cid == "induced-group[bit1]")
        assert induced.status == "skip"

    def test_empty_variable_list_group_checks_only(self):
        doc = cli.document_from_mapping({
            "schema_version": "1",
            "phi_space": {"size": 2},
            "group_K": {"generators": [[1, 0]]},
            "variables": [],
            "maximal_family": [],
            "pairs": [],
        })
        report = cli.run_verify(doc, "groups-only")
        assert [c.cid for c in report.checks] == ["group-axioms", "action-axioms"]
        assert not report.failed

    def test_spin_suite_appended_when_requested(self):
        raw = cli.two_bit_document()
        raw["options"]["spin_suite"] = True
        doc = cli.document_from_mapping(raw)
        report = cli.run_verify(doc, "with-spin")
        cids = [c.cid for c in report.checks]
        assert "spin-commutation[r=0.5]" in cids
        assert "planar-covariance[n=12]" in cids
        assert "full-rotation-witness" in cids
        assert not report.failed


    def test_inaccessible_pair_variable_is_a_failed_check(self, tmp_path, capsys):
        # par = bit1 xor bit2 is permissible but no coarsening of a family
        # member; the pair it joins fails relatedness and the report survives
        raw = cli.two_bit_document()
        raw["variables"].append({"name": "par", "values": [0, 1, 1, 0],
                                 "numeric_values": [0.0, 1.0]})
        raw["pairs"].append({"theta": "par", "xi": "bit2", "k": [0, 1, 2, 3]})
        path = tmp_path / "par.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["verify", str(path), "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        check = _check(captured.out, "relatedness[1]")
        assert check["status"] == "fail"
        assert check["detail"] == "variable par is not accessible"
        assert _check(captured.out, "permissibility[par]")["status"] == "pass"
        assert _check(captured.out, "resolution-of-identity[0]")["status"] == "pass"

    def test_family_member_strictly_refined_is_not_maximal(self, tmp_path, capsys):
        # const matches its own partition, but bit1 strictly refines it
        raw = cli.two_bit_document()
        raw["variables"].append({"name": "const", "values": [0, 0, 0, 0]})
        raw["maximal_family"].append("const")
        path = tmp_path / "const.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["verify", str(path), "--format", "structured"])
        out = capsys.readouterr().out
        assert code == 2
        assert _check(out, "maximality[const]")["status"] == "fail"
        assert _check(out, "maximality[bit1]")["status"] == "pass"
        assert json.loads(out)["summary"]["fail"] == 1

    @pytest.mark.parametrize("case, detail", [
        ("flip2-only", "the supplied group is not transitive on the values"),
        ("S3-axes", "the supplied group has a nontrivial point stabilizer"),
    ])
    def test_joined_group_refusals(self, case, detail, tmp_path, capsys):
        # G must match values one to one: K = <flip2> induces the trivial
        # group on bit1's two values, and S3 on each axis of the 3x3 value
        # product fixes a value with a transposition
        if case == "flip2-only":
            raw = cli.two_bit_document()
            raw["group_K"] = {"generators": [[1, 0, 3, 2]], "names": ["flip2"]}
        else:
            moves = [[1, 0, 2], [1, 2, 0]]
            gens = [[move[p // 3] * 3 + p % 3 for p in range(9)] for move in moves]
            gens += [[(p // 3) * 3 + move[p % 3] for p in range(9)] for move in moves]
            raw = {
                "schema_version": "1",
                "phi_space": {"size": 9},
                "group_K": {"generators": gens},
                "variables": [{"name": "a", "values": [p // 3 for p in range(9)]},
                              {"name": "b", "values": [p % 3 for p in range(9)]}],
                "maximal_family": ["a", "b"],
                "pairs": [{"theta": "a", "xi": "b", "k": [(p % 3) * 3 + p // 3 for p in range(9)]}],
            }
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["verify", str(path), "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        check = _check(captured.out, "joint-group[0]")
        assert (check["status"], check["detail"]) == ("fail", detail)
        assert _check(captured.out, "involution[0]")["status"] == "pass"
        assert json.loads(captured.out)["summary"]["fail"] == 1

    def test_state_injectivity_reads_library_check(self, monkeypatch):
        monkeypatch.setattr(coherent, "one_to_one_check", lambda system: (False, (0, 3)))
        report = cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        rec = next(c for c in report.checks if c.cid == "state-injectivity[0]")
        assert (rec.status, rec.witness) == ("fail", "elements (0, 3)")


class TestRawValues:
    def test_chain_keeps_raw_values(self, monkeypatch):
        # the writers alone round: each operator is its eigensystem's matrix
        # bit for bit, each answer its eigenvector, and each residual the
        # float its stage computed. The covariance residuals are given more
        # digits than a report prints
        eigs, systems, records = [], [], []

        def spy(fn, sink, change=lambda x: x):
            def wrapped(*args):
                sink.append(change(fn(*args)))
                return sink[-1]
            return wrapped

        monkeypatch.setattr(spectra, "eigensystem", spy(spectra.eigensystem, eigs))
        monkeypatch.setattr(pairing, "joint_coset_structure",
                            spy(pairing.joint_coset_structure, systems))
        monkeypatch.setattr(pairing, "covariance_records", spy(
            pairing.covariance_records, records,
            lambda recs: [dataclasses.replace(r, residual=(r.element + 1) / 3 * 1e-17)
                          for r in recs]))
        report = cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        assert not report.failed and len(report.operators) == len(eigs) == 2
        for op, eig in zip(report.operators, eigs):
            assert isinstance(op["matrix"], np.ndarray)
            assert np.array_equal(op["matrix"].view(np.uint64),
                                  eig.operator.matrix.view(np.uint64))
            assert np.array_equal(op["eigenvalues"].view(np.uint64), eig.spectrum.view(np.uint64))
        vectors = [eig.vectors[:, i] for eig in eigs for i in range(eig.vectors.shape[1])]
        assert all(any(qa["vector"].tobytes() == v.tobytes() for v in vectors)
                   for qa in report.question_answers)
        residuals = {c.cid: c.residual for c in report.checks if c.residual is not None}
        assert all(type(r) is float for r in residuals.values())
        assert residuals["resolution-of-identity[0]"] is systems[0].coherent.resolution.residual
        covariance = [r for cid, r in residuals.items() if cid.startswith("conjugation-")]
        assert covariance == [r.residual for r in records[0]] and len(covariance) == 8


class TestReports:
    def test_text_determinism(self):
        doc = cli.parse_context(TWO_BIT)
        a = cli.emit_report(cli.run_verify(doc, "two-bit"), "text")
        b = cli.emit_report(cli.run_verify(doc, "two-bit"), "text")
        assert a == b

    def test_structured_round_trip(self):
        doc = cli.parse_context(TWO_BIT)
        report = cli.run_verify(doc, "two-bit")
        text = cli.emit_report(report, "structured")
        payload = json.loads(text)
        again = cli.emit_report(report, "structured")
        assert json.loads(again) == payload
        assert payload["summary"]["fail"] == 0

    def test_text_has_line_per_check_with_anchor(self):
        doc = cli.parse_context(TWO_BIT)
        report = cli.run_verify(doc, "two-bit")
        text = cli.emit_report(report, "text")
        lines = [l for l in text.splitlines() if l.startswith("[")]
        assert len(lines) == len(report.checks)
        assert all("anchor=" in l for l in lines)

    def test_negative_zero_normalized(self):
        assert cli._fmt(-0.0) == "0.00000000000e+00"
        assert math.copysign(1.0, cli._rounded([-0.0])[0]) == 1.0

    # signed zeros, infinities, nan, the smallest subnormal, a huge value
    # and values that round at the twelfth significant digit
    EDGE_VALUES = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                   -5e-324, 1e300, -1e300, 1.234567890125, 1.2345678901249999,
                   9.999999999995e10, -9.999999999995e-10, 0.1 + 0.2, 2.5e-5]

    @pytest.mark.parametrize("sep", [" ", "  "])
    def test_pair_rows_match_per_entry_fmt(self, sep):
        matrix = complex_matrix(np.array(self.EDGE_VALUES).reshape(2, 4, 2))
        expected = [sep.join(f"[{cli._fmt(z.real)},{cli._fmt(z.imag)}]" for z in row)
                    for row in matrix.tolist()]
        assert cli._pair_rows(matrix, sep) == expected
        assert cli._pair_rows(matrix.tolist(), sep) == expected

    def test_rounded_as_fmt_prints(self):
        # one template over every value, parsed back: the twelve digits that
        # `_fmt` prints, which `_fmt` prints again unchanged
        rounded = cli._rounded(self.EDGE_VALUES)
        assert [cli._fmt(v) for v in rounded] == [cli._fmt(v) for v in self.EDGE_VALUES]
        for v, r in zip(self.EDGE_VALUES, rounded):
            assert repr(r) == repr(float(f"{v:.11e}") + 0.0)

    # more examples than the profile's 30, so that each run draws widths 0
    # and 1 and zero runs in every position
    @settings(max_examples=200)
    @given(st.integers(1, 5), st.integers(0, 6), st.sampled_from([" ", "  "]), st.data())
    def test_pair_rows_match_one_template_per_row(self, rows, cols, sep, data):
        # entries drawn from a small pool, so that pairs repeat; NaNs with
        # different imaginary parts must not share a string. About half the
        # entries are signed zeros, so that runs of zeros, -0.0 among them,
        # open, split and close rows, and whole rows are zero
        pool = data.draw(st.lists(st.sampled_from(self.EDGE_VALUES) | st.floats(), min_size=1,
                                  max_size=6))
        signed_zero = st.sampled_from([0.0, -0.0])
        entry = (st.tuples(st.sampled_from(pool), st.sampled_from(pool))
                 | st.tuples(signed_zero, signed_zero))
        pairs = np.array(data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)),
                         dtype=float).reshape(rows, cols, 2)
        assert cli._pair_rows(complex_matrix(pairs), sep) == one_template_rows(pairs, sep)

    def test_pair_rows_keep_nans_apart(self):
        pairs = np.array([[[math.nan, 1.0], [math.nan, 2.0], [-math.nan, 1.0], [0.0, -0.0]]])
        assert cli._pair_rows(complex_matrix(pairs), " ") == one_template_rows(pairs, " ") == [
            "[nan,1.00000000000e+00] [nan,2.00000000000e+00] [nan,1.00000000000e+00] "
            "[0.00000000000e+00,0.00000000000e+00]"]


def complex_matrix(pairs):
    """The complex matrix whose entries are the [re, im] pairs of the last
    axis, bit for bit."""
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def one_template_rows(pairs, sep):
    """The reference for `cli._pair_rows`: adding 0.0 turns -0.0 into 0.0,
    and one `%.11e` template formats each whole row."""
    pairs = np.asarray(pairs, dtype=float) + 0.0
    template = sep.join(["[%.11e,%.11e]"] * pairs.shape[1])
    return [template % tuple(row.tolist()) for row in pairs.reshape(len(pairs), -1)]


def rounded(v):
    """The reference rounding: twelve significant digits, -0.0 as 0.0."""
    return float(f"{v:.11e}") + 0.0


def rounded_pairs(entries):
    return [[rounded(z.real), rounded(z.imag)] for z in entries]


def reference_payload(report):
    """The reference for the structured report: its payload, each number
    rounded by `rounded`, which `json.dumps(..., indent=2)` lays out."""
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "context": report.context_name,
        "tolerance": rounded(report.tolerance),
        "seeds": None,
        "checks": [
            {"id": c.cid, "anchor": c.anchor, "status": c.status,
             "residual": None if c.residual is None else rounded(c.residual),
             "witness": c.witness, "detail": c.detail}
            for c in report.checks
        ],
        "operators": [
            {"pair": op["pair"], "variable": op["variable"],
             "matrix": [rounded_pairs(row) for row in op["matrix"].tolist()],
             "eigenvalues": [rounded(v) for v in op["eigenvalues"].tolist()]}
            for op in report.operators
        ],
        "question_answers": [
            {"pair": qa["pair"], "variable": qa["variable"], "value": qa["value"],
             "numeric": rounded(qa["numeric"]), "rank": qa["rank"],
             "vector": None if qa["vector"] is None else rounded_pairs(qa["vector"].tolist())}
            for qa in report.question_answers
        ],
        "summary": dict(zip(("pass", "fail", "skip"), report.counts())),
    }


def spelled(value):
    """`value` with each non-finite number as the string the text report
    prints for it."""
    if isinstance(value, float) and not math.isfinite(value):
        return cli._fmt(value)
    if isinstance(value, dict):
        return {key: spelled(v) for key, v in value.items()}
    if isinstance(value, list):
        return [spelled(v) for v in value]
    return value


def strict_loads(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")
    return json.loads(text, parse_constant=refuse)


# report text: the layout's own characters, a comma, NUL (the leaves' separator),
# a line separator, the spellings of non-finite numbers, escapes, and any
# character at all
TEXT = st.lists(st.sampled_from(["%", "%s", "|", "{", ",", '"', "\\", "\x00", "\u2028", " ",
                                 "\n", "é", "漢", "Infinity", "NaN"]) | st.characters(),
                max_size=5).map("".join)


@st.composite
def reports(draw, number):
    """A VerificationReport of every shape the writer lays out, with raw
    numbers as the chain stores them: floats, float spectra, and complex
    matrices and vectors whose parts are drawn from `number`."""
    def complex_array(*shape):
        size = 2 * math.prod(shape)
        return st.lists(number, min_size=size, max_size=size).map(
            lambda parts: complex_matrix(np.array(parts, dtype=float).reshape(*shape, 2)))

    checks = st.builds(cli.CheckRecord, TEXT, TEXT, st.sampled_from(["pass", "fail", "skip"]),
                       st.none() | number, st.none() | TEXT, st.none() | TEXT)
    rows, cols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    # the keys in the order the chain writes them
    operators = st.tuples(
        st.integers(), TEXT, complex_array(rows, cols),
        st.lists(number, max_size=3).map(lambda v: np.array(v, dtype=float)),
    ).map(lambda fields: dict(zip(("pair", "variable", "matrix", "eigenvalues"), fields)))
    answers = st.tuples(
        st.integers(), TEXT, TEXT, number, st.integers(),
        st.none() | st.integers(0, 3).flatmap(complex_array),
    ).map(lambda fields: dict(zip(("pair", "variable", "value", "numeric", "rank", "vector"),
                                  fields)))
    return cli.VerificationReport(draw(TEXT), draw(number), draw(st.lists(checks, max_size=4)),
                                  draw(st.lists(operators, max_size=2)),
                                  draw(st.lists(answers, max_size=3)))


# signed zeros, the smallest subnormals, the largest normal numbers near the
# float maximum and values that round at the twelfth significant digit
FINITE_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072e-308, 1.7e308,
                                -1.7e308, sys.float_info.max, 1.234567890125, 9.999999999995e10])
NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan, -math.nan])


class TestStructuredReport:
    # more examples than the profile's 30, so that empty and one-entry
    # matrices, vectors and lists of each kind are drawn
    @settings(max_examples=200)
    @given(reports(st.floats(allow_nan=False, allow_infinity=False) | FINITE_EDGES))
    def test_matches_indented_json(self, report):
        assert cli.emit_report(report, "structured") == json.dumps(
            reference_payload(report), indent=2) + "\n"

    @settings(max_examples=100)
    @given(reports(st.floats() | FINITE_EDGES | NON_FINITE))
    def test_non_finite_numbers_spelled_as_text_report(self, report):
        out = cli.emit_report(report, "structured")
        assert out == json.dumps(spelled(reference_payload(report)), indent=2,
                                 allow_nan=False) + "\n"
        strict_loads(out)


class TestMainEntry:
    def test_verify_exit_zero(self, capsys):
        code = cli.main(["verify", TWO_BIT])
        out = capsys.readouterr().out
        assert code == 0
        assert "summary:" in out

    def test_verify_byte_identical_runs(self, capsys):
        cli.main(["verify", TWO_BIT])
        first = capsys.readouterr().out
        cli.main(["verify", TWO_BIT])
        second = capsys.readouterr().out
        assert first == second

    def test_corrupted_exits_two_with_witness(self, capsys):
        code = cli.main(["verify", CORRUPTED])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAIL permissibility[bit1]" in out
        assert "witness=k=" in out

    def test_missing_file_exits_one(self, capsys):
        code = cli.main(["verify", "/nonexistent/no.json"])
        assert code == 1

    def test_demo_two_bit(self, capsys):
        code = cli.main(["demo", "two-bit"])
        out = capsys.readouterr().out
        assert code == 0
        assert "context: demo:two-bit" in out

    def test_demo_unknown_name(self, capsys):
        assert cli.main(["demo", "three-bit"]) == 1

    def test_operator_verb(self, capsys):
        code = cli.main(["operator", TWO_BIT, "--variable", "bit1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "operator for bit1" in out
        assert "eigenvalues:" in out

    def test_operator_undefined_variable(self, capsys):
        assert cli.main(["operator", TWO_BIT, "--variable", "bitX"]) == 1

    def test_operator_rejects_format_flag(self, capsys):
        # operator prints one text layout, so a --format would go unread
        with pytest.raises(SystemExit) as exc:
            cli.main(["operator", TWO_BIT, "--variable", "bit1", "--format", "structured"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --format structured" in capsys.readouterr().err

    def test_pair_verb(self, capsys):
        code = cli.main(["pair", TWO_BIT, "--pair", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "coset-labels[0]" in out

    def test_pair_out_of_range(self, capsys):
        assert cli.main(["pair", TWO_BIT, "--pair", "3"]) == 1

    def test_spin_verb(self, capsys):
        code = cli.main(["spin", "--r", "2.5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "dimension: 6" in out

    @pytest.mark.parametrize("r", ["nan", "inf", "1e308"])
    def test_spin_outside_the_range_refused(self, r, capsys):
        # the range is checked before 2r is rounded, which raises on these
        assert cli.main(["spin", "--r", r]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"r must be a half-integer in [0, 12.5], got {float(r)}\n"

    def test_structured_format_flag(self, capsys):
        code = cli.main(["verify", TWO_BIT, "--format", "structured"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["context"] == TWO_BIT

    def test_tolerance_override(self, capsys):
        code = cli.main(["verify", TWO_BIT, "--tolerance", "1e-6"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tolerance: 1.00000000000e-06" in out


class TestMissingNumericValues:
    def test_verify_skips_operator_stage(self):
        raw = cli.two_bit_document()
        raw["variables"][0].pop("numeric_values")
        raw["variables"][1].pop("numeric_values")
        doc = cli.document_from_mapping(raw)
        report = cli.run_verify(doc, "symbolic")
        rec = next(c for c in report.checks if c.cid == "operator-construction[0]")
        assert rec.status == "skip"
        assert not report.failed

    def test_operator_verb_reports_input_error(self, tmp_path, capsys):
        raw = cli.two_bit_document()
        raw["variables"][0].pop("numeric_values")
        path = tmp_path / "symbolic.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["operator", str(path), "--variable", "bit1"])
        assert code == 1

    def test_operator_input_error_before_group_work(self, monkeypatch, capsys):
        built = []
        original = coherent.build_coherent_system

        def spy(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(coherent, "build_coherent_system", spy)
        assert cli.main(["operator", NO_NUMERIC, "--variable", "bit1"]) == 1
        assert capsys.readouterr().err == "bit1: numeric values required but not declared\n"
        assert built == []

    @pytest.mark.parametrize("document, variable, message", [
        (TWO_BIT, "nosuch", "undefined variable 'nosuch'"),
        (NO_NUMERIC, "bit1", "bit1: numeric values required but not declared")],
        ids=["undefined", "no-numeric"])
    def test_operator_input_error_not_hidden_by_order_bound(self, document, variable, message,
                                                            capsys):
        # K of order 4 exceeds --max-order 1, which is found only after the
        # variable is read
        code = cli.main(["operator", document, "--variable", variable, "--max-order", "1"])
        assert code == 1
        assert capsys.readouterr().err == message + "\n"


def _one_point_document() -> dict:
    return {
        "schema_version": "1",
        "phi_space": {"size": 1},
        "group_K": {"generators": [[0]]},
        "variables": [{"name": "c", "values": [0], "numeric_values": [1.0]}],
        "maximal_family": ["c"],
        "pairs": [],
    }


def _with_option(key, value):
    raw = cli.two_bit_document()
    raw["options"][key] = value
    return raw


def _edited(edit):
    raw = cli.two_bit_document()
    edit(raw)
    return raw


MALFORMED = {
    "top-level array": ([cli.two_bit_document()], "document"),
    "tolerance string": (_with_option("tolerance", "abc"), "'tolerance'"),
    "negative tolerance": (_with_option("tolerance", -1e-9), "'tolerance'"),
    "max_order string": (_with_option("max_order", "x"), "'max_order'"),
    "max_order bool": (_with_option("max_order", True), "'max_order'"),
    "spin_suite string": (_with_option("spin_suite", "no"), "'spin_suite'"),
    "negative fiducial_index": (_with_option("fiducial_index", -1), "'fiducial_index'"),
    "bool size": ({**_one_point_document(), "phi_space": {"size": True}}, "'size'"),
    # three numbers for bit1's two distinct values
    "numeric_values count": (_edited(lambda raw: raw["variables"][0].update(
        numeric_values=[0.0, 1.0, 2.0])), "(bit1): numeric_values must have one entry"),
    "schema_version list": ({**cli.two_bit_document(), "schema_version": ["x"]},
                            "schema_version: must be '1'"),
    "schema_version number": ({**cli.two_bit_document(), "schema_version": 1},
                              "schema_version: must be '1'"),
    "labels not strings": (_edited(lambda raw: raw["phi_space"].update(labels=[0, 1, 2, 3])),
                           "labels must list one name per point"),
    # only an absent or null `names` gets the default names
    **{f"names {value!r}": (_edited(lambda raw, value=value: raw["group_K"].update(names=value)),
                            "group_K: names must be unique, one per generator")
       for value in (0, "", {}, False, [])},
}


class TestMalformedOptions:
    @pytest.mark.parametrize("raw, field", MALFORMED.values(), ids=list(MALFORMED))
    def test_exits_one_naming_field(self, raw, field, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(raw))
        code = cli.main(["verify", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "schema violations" in captured.err and field in captured.err

    def test_operator_rejects_numeric_values_count(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(MALFORMED["numeric_values count"][0]))
        code = cli.main(["operator", str(path), "--variable", "bit2"])
        captured = capsys.readouterr()
        # a schema violation, as in verify, though bit2 itself is well formed
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("schema violations: variables[0] (bit1): numeric_values")

    def test_large_fiducial_index_clamped(self):
        doc = cli.document_from_mapping(_with_option("fiducial_index", 7))
        report = cli.run_verify(doc, "clamped")
        assert not report.failed

    @pytest.mark.parametrize("flag, value", [("--tolerance", "-1"), ("--tolerance", "nan"),
                                             ("--max-order", "0")])
    def test_invalid_override_exits_one(self, flag, value, capsys):
        assert cli.main(["verify", TWO_BIT, flag, value]) == 1
        assert flag in capsys.readouterr().err


@pytest.fixture
def work_counts(monkeypatch):
    """Counter of eigendecompositions (`eigh` plus `eigvalsh`), of SVDs, of
    the most rows one SVD input had (`svd_rows`) and one QR input had
    (`qr_rows`), and of resolution-of-identity computations made while the
    fixture is active."""
    calls = collections.Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    np_svd, np_qr = np.linalg.svd, np.linalg.qr

    def svd(a, *args, **kwargs):
        calls["svd_rows"] = max(calls["svd_rows"], a.shape[0])
        return np_svd(a, *args, **kwargs)

    def qr(a, *args, **kwargs):
        calls["qr_rows"] = max(calls["qr_rows"], a.shape[0])
        return np_qr(a, *args, **kwargs)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting("eigh", getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
    monkeypatch.setattr(np.linalg, "qr", qr)
    monkeypatch.setattr(coherent, "resolution_of_identity",
                        counting("resolution", coherent.resolution_of_identity))
    return calls


@pytest.fixture
def table_work(monkeypatch):
    """Work on group tables while the fixture is active: the order of each
    Cayley table built, and the shape of each table scan
    (`_first_violation`, in every module that binds it)."""
    work = {"tables": [], "scans": []}
    fill, scan = vars(groups.FiniteGroup)["cayley"].func, groups._first_violation

    def table_spy(group):
        work["tables"].append(group.order)
        return fill(group)

    def scan_spy(shape, *args):
        work["scans"].append(tuple(shape))
        return scan(shape, *args)

    cayley = functools.cached_property(table_spy)
    cayley.__set_name__(groups.FiniteGroup, "cayley")
    monkeypatch.setattr(groups.FiniteGroup, "cayley", cayley)
    monkeypatch.setattr(groups, "_first_violation", scan_spy)
    monkeypatch.setattr(pairing, "_first_violation", scan_spy)
    return work


class TestWorkCounts:
    def test_one_eigendecomposition_per_operator(self, work_counts):
        cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        # both operators are diagonal on the coordinate states and are read
        # off; the one decomposition left is the invariant split behind the
        # swap matrix
        assert work_counts["eigh"] == 1

    def test_operator_on_basis_states_decomposes_nothing(self, work_counts, capsys):
        # the regular representation of S5 with a basis fiducial: the
        # operator is diagonal, so its spectrum is read off its diagonal
        assert cli.main(["operator", S5, "--variable", "v"]) == 0
        assert "eigenvalues:" in capsys.readouterr().out
        assert work_counts["eigh"] == 0

    def test_operator_sorts_no_matrix_entries(self, monkeypatch, capsys):
        # the diagonal 120×120 operator is printed from its 120 nonzero
        # entries; no sort over its 14,400 entries finds the distinct ones
        def refuse(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(np, "unique", refuse)
        assert cli.main(["operator", S5, "--variable", "v"]) == 0
        assert "eigenvalues:" in capsys.readouterr().out

    def test_structured_report_uses_no_python_encoder(self, monkeypatch, capsys):
        # json's indent encoder is its pure-Python one; the report's leaves
        # go through the C encoder in one call
        def refuse(*args, **kwargs):
            raise AssertionError("json's pure-Python encoder called")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert cli.main(["verify", TWO_BIT, "--format", "structured"]) == 0
        assert strict_loads(capsys.readouterr().out)["summary"]["fail"] == 0

    def test_k_closed_in_one_pass(self, monkeypatch, capsys):
        # S5 on 5 points from a transposition and a 5-cycle: products are
        # matched by their whole rows, so no closure is run again. K is the
        # one group closed; G is read off K's closure, and as v names each
        # point, G's rows, generators and columns are K's
        passes, induced = [], []
        closure, induced_group = groups._breadth_first, variables.induced_group

        def spy(*args):
            passes.append(args)
            return closure(*args)

        def induced_spy(var, action):
            induced.append((induced_group(var, action), action.group))
            return induced[-1][0]

        monkeypatch.setattr(groups, "_breadth_first", spy)
        monkeypatch.setattr(variables, "induced_group", induced_spy)
        assert cli.main(["operator", S5, "--variable", "v"]) == 0
        assert "eigenvalues:" in capsys.readouterr().out
        assert [bound for _, bound in passes] == [1024]
        [((g_group, _), k_group)] = induced
        assert g_group.generators == k_group.generators
        assert np.array_equal(g_group.rows, k_group.rows)
        assert np.array_equal(g_group.columns, k_group.columns)

    def test_resolution_count_independent_of_joined_group_order(self, work_counts):
        two_bit = cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        on_order_8 = work_counts["resolution"]
        work_counts.clear()
        xor4 = cli.run_verify(cli.parse_context(XOR4), "xor4")
        on_order_32 = work_counts["resolution"]
        assert "order=8" in next(c.detail for c in two_bit.checks if c.cid == "joint-group[0]")
        assert "order=32" in next(c.detail for c in xor4.checks if c.cid == "joint-group[0]")
        assert 0 < on_order_8 == on_order_32 <= 5

    def test_three_operators_per_pair(self, monkeypatch):
        # two-bit: the two variable operators and the unit one, each a one-row
        # projector sum, and the one stack of the 8 moved operators of the
        # covariance stage, which reuses the first operator
        rows = []
        sums = coherent._projector_sums

        def spy(system, values):
            rows.append(len(values))
            return sums(system, values)

        monkeypatch.setattr(coherent, "_projector_sums", spy)
        report = cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        assert not report.failed
        assert sorted(rows) == [1, 1, 1, 8]

    def test_one_svd_per_commutant_basis(self, work_counts):
        cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        # the invariant split behind the swap matrix; irreducibility reads the
        # character norm
        assert work_counts["svd"] == 1

    def test_commutant_systems_avoid_joined_group_order(self, work_counts):
        xor4 = cli.run_verify(cli.parse_context(XOR4), "xor4")
        assert "order=32" in next(c.detail for c in xor4.checks if c.cid == "joint-group[0]")
        # only the base representation's system, |G| * d^2 with d = |G| = 4,
        # against |N| * d^2 = 512 rows
        assert work_counts["qr_rows"] == 4 * 4**2

    def test_svd_reads_only_the_triangular_factor(self, work_counts):
        # cyclic m=8: the base representation's system has |G| * d^2 = 512
        # rows of d^2 = 64; the one SVD reads only its 64x64 R factor
        cli.run_verify(cli.parse_context(CYCLIC8), "cyclic m=8")
        assert work_counts["qr_rows"] == 8 * 8**2
        assert work_counts["svd"] == 1
        assert work_counts["svd_rows"] == 8**2

    def test_groups_verified_once_where_built(self, monkeypatch, capsys):
        calls = collections.Counter()
        closure, post_init = groups._breadth_first, groups.FiniteGroup.__post_init__

        def closure_spy(*args):
            calls["closures"] += 1
            return closure(*args)

        def post_init_spy(group, token):
            calls["groups"] += 1
            post_init(group, token)

        monkeypatch.setattr(groups, "_breadth_first", closure_spy)
        monkeypatch.setattr(groups.FiniteGroup, "__post_init__", post_init_spy)
        regular = representations.regular_representation

        def regular_spy(*args, **kwargs):
            before = sum(calls.values())
            rep = regular(*args, **kwargs)
            calls["regular_representation checks"] += sum(calls.values()) - before
            return rep

        monkeypatch.setattr(representations, "regular_representation", regular_spy)
        report = cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        assert not report.failed
        # K, the groups induced by bit1 and bit2, and N: K alone is closed
        # from its generators; each G is read off K's closure, as the maps
        # K -> G are homomorphisms by permissibility and are not checked, and
        # N is built in closed form from G; the regular representation of G
        # checks nothing
        assert calls["groups"] == 4
        assert calls["closures"] == 1
        assert "regular_representation checks" in calls
        assert calls["regular_representation checks"] == 0
        calls.clear()
        # operator: K, closed, and the group induced by v, read off it
        assert cli.main(["operator", S5, "--variable", "v"]) == 0
        assert "eigenvalues:" in capsys.readouterr().out
        assert calls["groups"] == 2
        assert calls["closures"] == 1

    def test_one_permissibility_check_per_variable(self, monkeypatch, capsys):
        calls = []
        original = variables.is_permissible

        def spy(var, action):
            calls.append(var.name)
            return original(var, action)

        monkeypatch.setattr(variables, "is_permissible", spy)
        cli.run_verify(cli.parse_context(CORRUPTED), "corrupted")
        assert calls == ["bit1", "bit2"]
        calls.clear()
        assert cli.main(["operator", TWO_BIT, "--variable", "bit2"]) == 0
        assert calls == ["bit2"]
        calls.clear()
        assert cli.main(["operator", CORRUPTED, "--variable", "bit1"]) == 2
        assert calls == ["bit1"]
        assert "bit1 is not permissible: witness (1, 0, 1)" in capsys.readouterr().err

    def test_no_full_table_for_k_or_n(self, monkeypatch):
        # verify on cyclic m=8: K (order 64) is read only through its rows
        # and generators and builds no Cayley table; the induced group G
        # builds one for its regular representation, and N (order 128) one
        # for the cosets of the joined representation, whose |N|^2 int64
        # entries take the bytes of the joined stack, |N| = 2 d^2
        built = {}

        def spy(name, module, original):
            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                built.setdefault(name, []).append(result)
                return result
            monkeypatch.setattr(module, name, wrapper)

        spy("generate_permutation_group", cli, cli.generate_permutation_group)
        spy("induced_group", variables, variables.induced_group)
        spy("build_joint_group", pairing, pairing.build_joint_group)
        spy("build_joint_representation", pairing, pairing.build_joint_representation)
        report = cli.run_verify(cli.parse_context(CYCLIC8), "cyclic m=8")
        assert report.failed       # the pinned irreducibility and coset failures
        [(k_group, _)] = built["generate_permutation_group"]
        n_group = built["build_joint_group"][0].group
        assert (k_group.order, n_group.order) == (64, 128)
        assert "cayley" not in vars(k_group)
        assert [g.order for g, _ in built["induced_group"]] == [8, 8]
        assert "cayley" in vars(built["induced_group"][0][0])
        assert "cayley" not in vars(built["induced_group"][1][0])
        [joint_rep] = built["build_joint_representation"]
        assert joint_rep.group is n_group
        assert n_group.cayley.nbytes == joint_rep.matrices.nbytes

    @pytest.mark.parametrize("doc, extends", [(CYCLIC8, True), (CYCLIC3, False)],
                             ids=["cyclic-m8", "cyclic-m3"])
    def test_words_only_name_a_failed_extension(self, doc, extends, monkeypatch):
        # cyclic m=8 extends and reads no word; on cyclic m=3 the extension
        # fails and the words name its witness
        seen = []
        original = groups.bfs_words

        def spy(*args, **kwargs):
            seen.append(args[0].order)
            return original(*args, **kwargs)

        monkeypatch.setattr(groups, "bfs_words", spy)
        monkeypatch.setattr(pairing, "bfs_words", spy)
        report = cli.run_verify(cli.parse_context(doc))
        extension = next(c for c in report.checks if c.cid == "well-defined-extension[0]")
        assert extension.status == ("pass" if extends else "fail")
        assert (seen == []) == extends

    def test_operator_checks_generators_not_the_table(self, table_work, capsys):
        # operator on S5 builds the regular representation, d = |G| = 120, as
        # the table of the group's Cayley columns, checked where the group was
        # built: G's Cayley table is the one table built, and the one scan is
        # the closure check of the fiducial's isotropy, one member by its
        # inverse and itself
        assert cli.main(["operator", S5, "--variable", "v"]) == 0
        assert "induced group order: 120" in capsys.readouterr().out
        assert table_work == {"tables": [120], "scans": [(1, 2)]}

    def test_failed_extension_reads_no_table_of_n(self, table_work):
        # cyclic m=5 fails the extension: the relations are decided on the
        # 4 x 4 commutators of the moved elements of G = Z_5, and N, of order
        # 50, builds no Cayley table; G builds its own for its regular
        # representation
        report = cli.run_verify(cli.parse_context(CYCLIC5))
        extension = next(c for c in report.checks if c.cid == "well-defined-extension[0]")
        assert extension.status == "fail"
        assert 50 not in table_work["tables"]
        assert set(table_work["scans"]) == {(4, 4)}


def _check(out: str, cid: str) -> dict:
    return next(c for c in json.loads(out)["checks"] if c["id"] == cid)


class TestPairChainTolerance:
    def test_document_tolerance_reaches_joint_system(self, monkeypatch):
        built = []

        def spy(*args, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        original = pairing.joint_coset_structure
        monkeypatch.setattr(pairing, "joint_coset_structure", spy)
        report = cli.run_verify(cli.document_from_mapping(_with_option("tolerance", 1e-6)), "1e-6")
        assert [system.tolerance for system in built] == [1e-6]
        assert not report.failed

    def test_operator_base_representation_uses_document_tolerance(self, monkeypatch, tmp_path):
        seen = []
        original = coherent.build_coherent_system

        def spy(rep, *args, **kwargs):
            seen.append(rep.tolerance)
            return original(rep, *args, **kwargs)

        monkeypatch.setattr(coherent, "build_coherent_system", spy)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_with_option("tolerance", 1e-6)))
        assert cli.main(["operator", str(path), "--variable", "bit1"]) == 0
        assert seen == [1e-6]


class TestCommutantChecks:
    # the two-bit commutant system: the base representation's 2 blocks of 4x4
    # entries (512 bytes)
    @pytest.mark.parametrize("limit, cid", [(256, "well-defined-extension[0]")])
    def test_size_limit_is_a_failed_check(self, limit, cid, monkeypatch, capsys):
        monkeypatch.setattr(representations, "COMMUTANT_BYTE_LIMIT", limit)
        code = cli.main(["verify", TWO_BIT, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        check = _check(captured.out, cid)
        assert check["status"] == "fail"
        assert check["detail"].startswith("not evaluated: ") and "MiB bound" in check["detail"]
        assert _check(captured.out, "joint-group[0]")["status"] == "pass"

    def test_no_swap_matrix_is_a_failed_check(self, capsys):
        # at tolerance 0.9 every Hermitian part of the commutant basis counts
        # as scalar, so no swap matrix is built; the checks before it stay
        code = cli.main(["verify", TWO_BIT, "--tolerance", "0.9", "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        check = _check(captured.out, "well-defined-extension[0]")
        assert check["status"] == "fail"
        assert check["detail"] == "not evaluated: no non-scalar Hermitian commutant element found"
        assert json.loads(captured.out)["summary"] == {"pass": 11, "fail": 1, "skip": 0}

    @pytest.mark.parametrize("norm, dim", [(2.0, 2), (1.25, 1)])
    def test_irreducibility_reads_character_norm(self, norm, dim, monkeypatch, capsys):
        monkeypatch.setattr(representations, "character_norm", lambda rep: norm)
        code = cli.main(["verify", TWO_BIT, "--format", "structured"])
        check = _check(capsys.readouterr().out, "irreducibility[0]")
        assert check["detail"] == f"commutant_dim={dim}"
        assert check["status"] == ("pass" if dim == 1 else "fail")
        assert code == (0 if dim == 1 else 2)


class TestSpaceSizeBound:
    @pytest.mark.parametrize("argv", [["verify", "--format", "structured"],
                                      ["operator", "--variable", "x"]])
    def test_refused_before_tables_are_allocated(self, argv, tmp_path, capsys):
        # one identity row of 10^8 points would take 800 MB
        path = tmp_path / "large.json"
        path.write_text(json.dumps({"phi_space": {"size": 10**8},
                                    "group_K": {"generators": []}, "variables": []}))
        tracemalloc.start()
        try:
            code = cli.main([argv[0], str(path), *argv[1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert peak < 8 * 2**20
        if argv[0] == "verify":
            assert code == 2
            check = _check(captured.out, "group-axioms")
            assert check["status"] == "fail" and "MiB bound" in check["detail"]
            assert captured.err == ""
        else:
            # the document has no variable x, which is told before K is closed
            assert code == 1
            assert captured.err == "undefined variable 'x'\n"

    def test_operator_refuses_k_above_byte_bound(self, monkeypatch, capsys):
        monkeypatch.setattr(groups, "PERMUTATION_BYTE_LIMIT", 64)
        code = cli.main(["operator", TWO_BIT, "--variable", "bit1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "MiB bound" in captured.err and "Traceback" not in captured.err

    def test_operator_refuses_cayley_table_above_byte_bound(self, monkeypatch, capsys):
        # K, S5 on 5 points, fits; the 120 x 120 table of the induced group's
        # regular action does not, and is refused before it is allocated: the
        # report says so on stdout, after the group's order
        monkeypatch.setattr(groups, "PERMUTATION_BYTE_LIMIT", 2**16)
        code = cli.main(["operator", S5, "--variable", "v"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert captured.out.splitlines() == [
            "operator for v", "induced group order: 120",
            "operator not constructed: 120 permutations of 120 points need 0 MiB, "
            "above the 0 MiB bound"]


class TestOperatorMemory:
    def test_operator_s5_peak(self, capsys):
        # the regular representation of S5 is held as its 120x120 table:
        # its 27.6 MB stack of 0/1 matrices is never built
        tracemalloc.start()
        try:
            code = cli.main(["operator", S5, "--variable", "v"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert "induced group order: 120" in capsys.readouterr().out
        assert peak < 6 * 2**20

    def test_operator_reads_no_stack_and_no_projectors(self, monkeypatch, capsys):
        built = []
        regular = representations.regular_representation

        def spy(*args, **kwargs):
            built.append(regular(*args, **kwargs))
            return built[-1]

        def unread(self):
            raise AssertionError("projectors read")

        monkeypatch.setattr(representations, "regular_representation", spy)
        monkeypatch.setattr(spectra.EigenSystem, "projectors", property(unread))
        for doc in (S5, TWO_BIT):
            assert cli.main(["operator", doc, "--variable", "v" if doc == S5 else "bit1"]) == 0
        assert "eigenvalues:" in capsys.readouterr().out
        assert len(built) == 2 and all("matrices" not in vars(rep) for rep in built)


class TestRepresentationBound:
    def test_operator_builds_no_regular_stack(self, tmp_path, capsys):
        # the identity variable of a cyclic K of order 257 induces Z_257, whose
        # regular representation would stack 257 matrices of 257x257 (259 MiB,
        # above the 256 MiB bound): `operator` reads the representation's table
        # and never builds that stack, so the bound does not refuse it
        n = 257
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps({
            "phi_space": {"size": n},
            "group_K": {"generators": [[(x + 1) % n for x in range(n)]]},
            "variables": [{"name": "x", "values": list(range(n)),
                           "numeric_values": [float(x) for x in range(n)]}]}))
        tracemalloc.start()
        try:
            code = cli.main(["operator", str(path), "--variable", "x"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert "induced group order: 257" in captured.out and "eigenvalues:" in captured.out
        assert peak < 32 * 2**20

    # two-bit: the base representation stacks 2 matrices of 2x2 (128 bytes),
    # the joined representation 8 of them (512 bytes)
    @pytest.mark.parametrize("limit", [64, 256])
    def test_verify_reports_refused_stack(self, limit, monkeypatch, capsys):
        monkeypatch.setattr(representations, "REPRESENTATION_BYTE_LIMIT", limit)
        code = cli.main(["verify", TWO_BIT, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == ""
        check = _check(captured.out, "well-defined-extension[0]")
        assert check["status"] == "fail"
        assert check["detail"].startswith("not evaluated: ") and "MiB bound" in check["detail"]
        assert _check(captured.out, "joint-group[0]")["status"] == "pass"


def _large_value_document(tmp_path, values=(0.0, 1.7e308)) -> str:
    """The two-bit fixture with bit1's values 0 and 1.7e308 by default:
    finite, and above half the float maximum."""
    raw = json.loads(Path(TWO_BIT).read_text())
    raw["variables"][0]["numeric_values"] = list(values)
    path = tmp_path / "large.json"
    path.write_text(json.dumps(raw))
    return str(path)


def _unbuilt_operators(monkeypatch):
    """Every operator matrix comes out infinite, so building one fails."""
    sums = coherent._projector_sums
    monkeypatch.setattr(coherent, "_projector_sums", lambda system, values:
                        sums(system, values) + np.inf)


class TestLargeValues:
    def test_verify_builds_operators(self, tmp_path, capsys):
        code = cli.main(["verify", _large_value_document(tmp_path), "--format", "structured"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["summary"] == {"pass": 26, "fail": 0, "skip": 4}
        assert _check(out, "operator-construction[0]")["status"] == "pass"
        # a residual of 1.6e293 is rounding at values of 1.7e308: it passes
        # at the tolerance times the largest |value|
        assert _check(out, "conjugation-covariance[0][t=3]")["status"] == "pass"

    def test_operator_builds_matrix(self, tmp_path, capsys):
        code = cli.main(["operator", _large_value_document(tmp_path), "--variable", "bit1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert "eigenvalues: 0.00000000000e+00 1.70000000000e+308" in captured.out

    def test_operator_eigenvalues_a_float_range_apart(self, tmp_path, capsys):
        # the gap between the two eigenvalues overflows to inf, which is above
        # the clustering bound, without an overflow warning
        path = _large_value_document(tmp_path, (-1.7e308, 1.7e308))
        code = cli.main(["operator", path, "--variable", "bit1"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        questions = [line for line in captured.out.splitlines() if line.startswith("question")]
        assert questions == ["question value=0 numeric=-1.70000000000e+308 rank=1",
                             "question value=1 numeric=1.70000000000e+308 rank=1"]

    def test_verify_covariance_of_values_a_float_range_apart(self, tmp_path, capsys):
        # W^dagger A W and the moved operator, each near the float maximum,
        # differ by past the float range unscaled; they are subtracted scaled
        # by a power of two, and the covariant elements pass
        path = _large_value_document(tmp_path, (-1.7e308, 1.7e308))
        code = cli.main(["verify", path, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        for t in (3, 5):
            assert _check(captured.out, f"conjugation-covariance[0][t={t}]")["status"] == "pass"

    def test_structured_report_is_strict_json(self, capsys):
        # both variables' values a float range apart: moved operators that
        # collide in a scalar class leave infinite residuals, which the
        # report spells as the text report prints them
        code = cli.main(["verify", HUGE_VALUES, "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        payload = strict_loads(captured.out)
        check = next(c for c in payload["checks"] if c["id"] == "conjugation-covariance[0][t=2]")
        assert (check["status"], check["residual"]) == ("skip", "inf")

    def test_verify_reports_unbuilt_operator(self, tmp_path, monkeypatch, capsys):
        _unbuilt_operators(monkeypatch)
        code = cli.main(["verify", _large_value_document(tmp_path), "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        check = _check(captured.out, "operator-construction[0]")
        assert check["status"] == "fail" and "non-finite" in check["detail"]

    def test_operator_reports_unbuilt_operator(self, tmp_path, monkeypatch, capsys):
        _unbuilt_operators(monkeypatch)
        code = cli.main(["operator", _large_value_document(tmp_path), "--variable", "bit1"])
        captured = capsys.readouterr()
        assert code == 2
        assert "non-finite" in captured.err and "Traceback" not in captured.err

    def test_verify_reports_unbuilt_moved_operators(self, tmp_path, monkeypatch, capsys):
        def unbuilt(system, values):
            raise ValueError("operator matrix has a non-finite entry")

        monkeypatch.setattr(coherent, "operator_stack", unbuilt)
        code = cli.main(["verify", _large_value_document(tmp_path), "--format", "structured"])
        captured = capsys.readouterr()
        assert code == 2 and captured.err == ""
        assert _check(captured.out, "operator-construction[0]")["status"] == "pass"
        check = _check(captured.out, "conjugation-covariance[0]")
        assert check["status"] == "fail" and check["detail"].startswith("moved operator not built")
        assert _check(captured.out, "transition-unitarity[0]")["status"] == "pass"


class TestFreshProcess:
    ROOT = Path(__file__).resolve().parent.parent

    def run_python(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(self.ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], cwd=self.ROOT, env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("argv", [
        ["verify", "fixtures/two_bit.json"],
        ["operator", "tests/golden/docs/symmetric_n5.json", "--variable", "v"],
    ], ids=["verify-two-bit", "operator-s5"])
    def test_verify_imports_nothing_new(self, argv):
        # a lazy import inside the chain (numpy.ma behind numpy 2.4's
        # np.unique, locale behind argparse's messages) costs every one-shot
        # command its time; the operator on S5 takes the basis-state and
        # diagonal read-off paths
        script = (
            "import contextlib, io, json, sys\n"
            "import numpy, cvhilbert.cli\n"
            "before = set(sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cvhilbert.cli.main({argv!r})\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n")
        done = self.run_python("-c", script)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [0, []]

    def test_huge_tolerance_warns_nothing(self):
        # the commutant's rank threshold, tolerance * largest singular value,
        # passes the float maximum here
        done = self.run_python("-W", "error", "-m", "cvhilbert.cli", "verify",
                               "fixtures/two_bit.json", "--tolerance", "1e308")
        assert done.returncode == 2 and done.stderr == ""
        assert "FAIL well-defined-extension[0]" in done.stdout
