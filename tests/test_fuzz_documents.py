"""Arbitrary JSON through the command line: an exit code, never a traceback;
a misspelled field at any depth is refused; and every `verify` of a valid
document ends in a whole report."""

import contextlib
import io
import json
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from cvhilbert import cli

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=6), inner, max_size=5),
    max_leaves=12,
)


def _paths(value, prefix=()):
    """Every key/index path into a JSON value, the empty root path included."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _paths(item, prefix + (i,))


def _at(value, path):
    for key in path:
        value = value[key]
    return value


BASE = cli.two_bit_document()
BASE_PATHS = sorted((p for p in _paths(BASE) if p), key=repr)
# the paths to the document's mappings, the document itself included, and
# every field name the schema knows
MAPPINGS = [p for p in _paths(BASE) if isinstance(_at(BASE, p), dict)]
FIELD_NAMES = {key for p in MAPPINGS for key in _at(BASE, p)} | set(cli._OPTIONS)


@st.composite
def mutated_documents(draw):
    """The two-bit document with one field replaced by an arbitrary value or
    removed."""
    *head, last = draw(st.sampled_from(BASE_PATHS))
    doc = json.loads(json.dumps(BASE))
    parent = _at(doc, head)
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(JSON_VALUES)
    return doc


@st.composite
def renamed_fields(draw):
    """The two-bit document with one field of one of its mappings, at any
    depth, renamed to a name the schema does not know; with the mapping's
    path and the new name."""
    path = draw(st.sampled_from(MAPPINGS))
    doc = json.loads(json.dumps(BASE))
    mapping = _at(doc, path)
    name = draw(st.text(max_size=6).filter(lambda key: key not in FIELD_NAMES))
    mapping[name] = mapping.pop(draw(st.sampled_from(sorted(mapping))))
    return doc, path, name


def _run(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@settings(max_examples=150)
@given(doc=JSON_VALUES | mutated_documents(), command=st.sampled_from(("verify", "operator")))
def test_mutated_documents_exit_cleanly(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["verify", str(path)] if command == "verify" else [
        "operator", str(path), "--variable", "bit1"]
    assert _run(argv) in (0, 1, 2)


@settings(max_examples=100)
@given(case=renamed_fields(), command=st.sampled_from(("verify", "operator")))
def test_unknown_field_refused_at_any_depth(tmp_path_factory, case, command):
    doc, path, name = case
    file = tmp_path_factory.getbasetemp() / "renamed.json"
    file.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["verify", str(file)] if command == "verify" else [
        "operator", str(file), "--variable", "bit1"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    where = path[0] + "".join(f"[{i}]" for i in path[1:]) if path else "document"
    assert code == 1 and not out.getvalue()
    assert f"{where}: unknown field {name!r}" in err.getvalue()


ROOT = Path(__file__).resolve().parent.parent
VALID = {path.stem: json.loads(path.read_text(encoding="utf-8")) for path in (
    ROOT / "fixtures" / "two_bit.json",
    ROOT / "tests" / "golden" / "docs" / "cyclic_m2.json",
    ROOT / "tests" / "golden" / "docs" / "xor_m8.json",
)}
# the float range's ends, the smallest normal and subnormal, and any finite
EXTREME = st.sampled_from([1.7976931348623157e308, 1.7e308, 2.2250738585072014e-308,
                           5e-324, 0.0]).flatmap(lambda v: st.sampled_from([v, -v])) | st.floats(
    allow_nan=False, allow_infinity=False)


@st.composite
def extreme_documents(draw):
    """A valid document with a tolerance in (0, 1), any fiducial index and
    extreme finite numeric values."""
    doc = json.loads(json.dumps(VALID[draw(st.sampled_from(sorted(VALID)))]))
    doc["options"]["tolerance"] = draw(st.floats(0, 1, exclude_min=True, exclude_max=True))
    doc["options"]["fiducial_index"] = draw(st.integers(0, 20))
    for var in doc["variables"]:
        count = len(var["numeric_values"])
        var["numeric_values"] = draw(st.lists(EXTREME, min_size=count, max_size=count))
    return doc


@settings(max_examples=100)
@given(doc=extreme_documents())
def test_verify_ends_in_a_report(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "extreme.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path)])
    if code == 1:
        assert err.getvalue().startswith("schema violations: ") and not out.getvalue()
        return
    statuses = re.findall(r"^\[ *\d+\] (PASS|FAIL|SKIP) ", out.getvalue(), re.M)
    counts = [statuses.count(s) for s in ("PASS", "FAIL", "SKIP")]
    summary = "summary: checks={} pass={} fail={} skip={}".format(len(statuses), *counts)
    assert out.getvalue().endswith(summary + "\n")
    assert code == (2 if counts[1] else 0) and not err.getvalue()
