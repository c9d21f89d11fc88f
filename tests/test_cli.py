import collections
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cvhilbert import cli, coherent, groups, pairing, representations
from cvhilbert.errors import ParseError, SchemaError

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TWO_BIT = str(FIXTURES / "two_bit.json")
CORRUPTED = str(FIXTURES / "two_bit_corrupted.json")
XOR4 = str(Path(__file__).resolve().parent / "golden" / "docs" / "xor_m4.json")
S5 = str(Path(__file__).resolve().parent / "golden" / "docs" / "symmetric_n5.json")


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
        doc = cli.document_from_mapping(cli.two_bit_document())
        # flip1 then flip2 equals the simultaneous flip
        perm = cli._resolve_word(doc, "flip1 flip2")
        assert perm == (3, 2, 1, 0)


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


    def test_state_injectivity_reads_library_check(self, monkeypatch):
        monkeypatch.setattr(coherent, "one_to_one_check", lambda system: (False, (0, 3)))
        report = cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        rec = next(c for c in report.checks if c.cid == "state-injectivity[0]")
        assert (rec.status, rec.witness) == ("fail", "elements (0, 3)")


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
        assert cli._num(-0.0) == 0.0

    @pytest.mark.parametrize("sep", [" ", "  "])
    def test_pair_rows_match_per_entry_fmt(self, sep):
        # signed zeros, infinities, nan, the smallest subnormal, a huge value
        # and values that round at the twelfth significant digit
        values = [-0.0, 0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324,
                  -5e-324, 1e300, -1e300, 1.234567890125, 1.2345678901249999,
                  9.999999999995e10, -9.999999999995e-10, 0.1 + 0.2, 2.5e-5]
        pairs = np.array(values).reshape(2, 4, 2)
        expected = [sep.join(f"[{cli._fmt(re)},{cli._fmt(im)}]" for re, im in row)
                    for row in pairs]
        assert cli._pair_rows(pairs, sep) == expected
        assert cli._pair_rows(pairs.tolist(), sep) == expected


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


MALFORMED = {
    "top-level array": ([cli.two_bit_document()], "document"),
    "tolerance string": (_with_option("tolerance", "abc"), "'tolerance'"),
    "negative tolerance": (_with_option("tolerance", -1e-9), "'tolerance'"),
    "max_order string": (_with_option("max_order", "x"), "'max_order'"),
    "max_order bool": (_with_option("max_order", True), "'max_order'"),
    "spin_suite string": (_with_option("spin_suite", "no"), "'spin_suite'"),
    "negative fiducial_index": (_with_option("fiducial_index", -1), "'fiducial_index'"),
    "bool size": ({**_one_point_document(), "phi_space": {"size": True}}, "'size'"),
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
    """Counter of eigendecompositions (`eigh` plus `eigvalsh`), of SVDs and the
    most rows one SVD input had (`svd_rows`), and of resolution-of-identity
    computations made while the fixture is active."""
    calls = collections.Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    np_svd = np.linalg.svd

    def svd(a, *args, **kwargs):
        calls["svd_rows"] = max(calls["svd_rows"], a.shape[0])
        return np_svd(a, *args, **kwargs)

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting("eigh", getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "svd", counting("svd", svd))
    monkeypatch.setattr(coherent, "resolution_of_identity",
                        counting("resolution", coherent.resolution_of_identity))
    return calls


@pytest.fixture
def constructor_work(monkeypatch):
    """Counter of the work of `UnitaryRepresentation` while the fixture is
    active: table scans, matrix products made by `np.matmul`, calls of the
    generator residuals and of the certificate, and the order and generator
    count of the last group whose generators were read off."""
    calls = collections.Counter()
    greedy, matmul = representations._greedy_generators, np.matmul

    def counting(name, key):
        original = getattr(representations, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(representations, name, wrapper)

    def greedy_spy(group):
        gens = greedy(group)
        calls["order"], calls["generators"] = group.order, len(gens)
        return gens

    def matmul_spy(x1, x2, *args, **kwargs):
        out = matmul(x1, x2, *args, **kwargs)
        calls["products"] += int(np.prod(out.shape[:-2]))
        return out

    counting("_first_violation", "scans")
    counting("_generator_residuals", "residuals")
    counting("_certified", "certificates")
    monkeypatch.setattr(representations, "_greedy_generators", greedy_spy)
    monkeypatch.setattr(np, "matmul", matmul_spy)
    return calls


class TestWorkCounts:
    def test_one_eigendecomposition_per_operator(self, work_counts):
        cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        # one per operator, plus the invariant split behind the swap matrix
        assert work_counts["eigh"] == 3

    def test_resolution_count_independent_of_joined_group_order(self, work_counts):
        two_bit = cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        on_order_8 = work_counts["resolution"]
        work_counts.clear()
        xor4 = cli.run_verify(cli.parse_context(XOR4), "xor4")
        on_order_32 = work_counts["resolution"]
        assert "order=8" in next(c.detail for c in two_bit.checks if c.cid == "joint-group[0]")
        assert "order=32" in next(c.detail for c in xor4.checks if c.cid == "joint-group[0]")
        assert 0 < on_order_8 == on_order_32 <= 5

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
        assert work_counts["svd_rows"] == 4 * 4**2

    def test_groups_verified_once_where_built(self, monkeypatch):
        calls = collections.Counter()

        def count(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        count(groups, "build_action")
        count(groups, "_check_associativity")
        regular = representations.regular_representation

        def regular_spy(*args, **kwargs):
            before = calls["build_action"]
            rep = regular(*args, **kwargs)
            calls["regular_representation actions"] += calls["build_action"] - before
            return rep

        monkeypatch.setattr(representations, "regular_representation", regular_spy)
        report = cli.run_verify(cli.parse_context(TWO_BIT), "two-bit")
        assert not report.failed
        # K, the groups induced by bit1 and bit2, and N, each verified through
        # its action where it is built; no associativity scan, and the regular
        # representation of G verifies no action of its own
        assert calls["build_action"] == 4
        assert calls["_check_associativity"] == 0
        assert "regular_representation actions" in calls
        assert calls["regular_representation actions"] == 0

    def test_operator_checks_generators_not_the_table(self, constructor_work, capsys):
        # operator on S5 builds the regular representation, d = |G| = 120, and
        # the constructor checks its integer table on |G|*|S| generator pairs:
        # no matrix product, no residual, no certificate and no table scan
        assert cli.main(["operator", S5, "--variable", "v"]) == 0
        assert "induced group order: 120" in capsys.readouterr().out
        assert constructor_work["order"] == 120 and 2 <= constructor_work["generators"] <= 6
        assert constructor_work["scans"] == 0
        assert constructor_work["products"] == 0
        assert constructor_work["residuals"] == constructor_work["certificates"] == 0

    def test_joined_representation_checks_products(self, constructor_work, qubit_rep):
        # the two-bit joined representation is not a permutation representation:
        # its stack is proven by the generator residuals and the certificate,
        # |N|*|S| products plus |N| unitarity products, N of order 8
        assert representations._table_of(qubit_rep.matrices) is None
        representations.UnitaryRepresentation(
            qubit_rep.group, qubit_rep.dim, qubit_rep.matrices, qubit_rep.tolerance)
        assert constructor_work["order"] == 8
        assert constructor_work["residuals"] == constructor_work["certificates"] == 1
        assert constructor_work["scans"] == 0
        assert constructor_work["products"] == 8 * constructor_work["generators"] + 8


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
        assert code == 2
        assert peak < 8 * 2**20
        if argv[0] == "verify":
            check = _check(captured.out, "group-axioms")
            assert check["status"] == "fail" and "MiB bound" in check["detail"]
            assert captured.err == ""
        else:
            assert "MiB bound" in captured.err and "Traceback" not in captured.err


class TestRepresentationBound:
    def test_operator_refuses_regular_stack(self, tmp_path, capsys):
        # the identity variable of a cyclic K of order 257 induces Z_257, whose
        # regular representation would stack 257 matrices of 257x257 (259 MiB):
        # the smallest cyclic order above the 256 MiB bound
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
        assert code == 2
        assert "259 MiB" in captured.err and "256 MiB bound" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert peak < 16 * 2**20

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
