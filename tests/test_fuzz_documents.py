"""Arbitrary JSON through the command line: an exit code, never a traceback."""

import contextlib
import io
import json

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


BASE = cli.two_bit_document()
BASE_PATHS = sorted((p for p in _paths(BASE) if p), key=repr)


@st.composite
def mutated_documents(draw):
    """The two-bit document with one field replaced by an arbitrary value or
    removed."""
    *head, last = draw(st.sampled_from(BASE_PATHS))
    doc = json.loads(json.dumps(BASE))
    parent = doc
    for key in head:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(JSON_VALUES)
    return doc


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
