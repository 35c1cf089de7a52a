"""Arbitrary JSON values in the fields of cover, arrangement and hodge JSON
files.

The CLI must exit 0 or 2 and never raise; exit 2 writes exactly one
`error:` line to stderr.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import hypothesis.strategies as st
from hypothesis import given, settings

from planecover.cli import run

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=10,
)
# literals near the cyclotomic grammar reach the parser's own refusals
literals = st.text(alphabet="0123456789/+-*z ", max_size=8)
coefficients = literals | json_values

QUAD_LINES = [
    ["0", "0", "1"], ["0", "1", "0"], ["0", "1", "-1"],
    ["1", "-1", "0"], ["1", "0", "-1"], ["1", "0", "0"],
]
QUAD_COVER = {
    "arrangement": "builtin:complete_quadrilateral",
    "m": 5,
    "k": 2,
    "phi": [[1, 0], [1, 0], [1, 2], [0, 1], [0, 1], [2, 1]],
    "blow_up": "all_r_ge_3",
}


@st.composite
def arrangement_docs(draw):
    """The quadrilateral with some coefficients, rows or the whole `lines`
    array replaced, or an arbitrary JSON document."""
    lines = [list(row) for row in QUAD_LINES]
    for (i, j), value in draw(
        st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 2)), coefficients, max_size=3)
    ).items():
        lines[i][j] = value
    for i, row in draw(st.dictionaries(st.integers(0, 5), json_values, max_size=2)).items():
        lines[i] = row
    how = draw(st.sampled_from(["kept", "lines", "document"]))
    if how == "lines":
        return {"lines": draw(json_values)}
    if how == "document":
        return draw(json_values)
    return {"lines": lines}


HODGE = {"k2": 333, "euler": 111, "q": 0, "nu": 0, "p_plus": 0, "p_minus": 36,
         "components": [[1, 5, 1]], "k3": 0}
HODGE_BY_H = {"h10": 0, "h20": 27, "h11": 37, "nu": 0, "p_plus": 1, "p_minus": 35}


@st.composite
def hodge_docs(draw):
    """Hodge data in either form with some fields replaced by arbitrary JSON
    values or small integers, or dropped, or an arbitrary JSON document."""
    doc = dict(draw(st.sampled_from([HODGE, HODGE_BY_H])))
    fields = sorted(doc)
    doc.update(draw(st.dictionaries(st.sampled_from(fields), json_values | st.integers(-3, 40), max_size=3)))
    for key in draw(st.sets(st.sampled_from(fields), max_size=2)):
        doc.pop(key, None)
    return draw(json_values) if draw(st.integers(0, 9)) == 0 else doc


@st.composite
def cover_docs(draw):
    """A quadrilateral cover with some fields replaced or dropped; the
    arrangement may be an inline arrangement document."""
    doc = dict(QUAD_COVER)
    fields = sorted(QUAD_COVER)
    doc.update(draw(st.dictionaries(st.sampled_from(fields), json_values, max_size=3)))
    for key in draw(st.sets(st.sampled_from(fields), max_size=2)):
        doc.pop(key, None)
    if draw(st.booleans()):
        doc["arrangement"] = draw(arrangement_docs())
    return doc


def _run_on(tmp_path_factory, command, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run([*command, str(path)])
    assert code in (0, 2)
    if code == 2:
        message = err.getvalue()
        assert message.startswith("error: ") and message.count("\n") == 1, message


@settings(max_examples=100, deadline=None)
@given(arrangement_docs())
def test_arrangement_json_fuzz(tmp_path_factory, doc):
    _run_on(tmp_path_factory, ["arrangement", "info"], doc)


@settings(max_examples=100, deadline=None)
@given(cover_docs())
def test_cover_json_fuzz(tmp_path_factory, doc):
    _run_on(tmp_path_factory, ["cover", "smoothness"], doc)


@settings(max_examples=100, deadline=None)
@given(hodge_docs())
def test_hodge_json_fuzz(tmp_path_factory, doc):
    _run_on(tmp_path_factory, ["bounds", "check"], doc)
