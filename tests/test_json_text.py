"""io._json_text and Report.dumps against json.dumps of the value made JSON.

The reference ``jsonable`` is the conversion reports went through before
they were written by ``io._json_text``: each text must equal
``json.dumps(jsonable(value), sort_keys=True, indent=2)`` byte for byte.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from homsol.io import TOOL_VERSION, Report, _json_text
from homsol.tensor import Check


def jsonable(v):
    if v is None or isinstance(v, (bool, str)):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    return str(v)


def reference_report(report: Report) -> str:
    """The report's text as json.dumps writes its fields made JSON."""
    checks = []
    for check in report.checks:
        out = {"name": check.name, "anchor": check.anchor, "passed": check.passed}
        if check.value is not None:
            out["value"] = jsonable(check.value)
        if check.bound is not None:
            out["tolerance"] = float(check.bound)
        if check.info:
            out["info"] = {k: jsonable(v) for k, v in check.info.items()}
        checks.append(out)
    raw = {
        "tool": "homsol",
        "version": TOOL_VERSION,
        "command": report.command,
        "input": {"name": report.input_name, "sha256": report.input_hash},
        "config": {"tolerance": float(report.tolerance)},
        "classification": report.classification,
        "passed": bool(report.passed),
        "checks": checks,
        "errors": report.errors,
        "results": {k: jsonable(v) for k, v in report.results.items()},
    }
    return json.dumps(raw, sort_keys=True, indent=2)


SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

# JSON's specials: quotes, backslashes, brackets, commas, control characters, non-ASCII
TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\[]{},:\n\t\x00\x1f\x7fé\u2028😀')))
FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2e-308, 1e16, 0.1]),
)
INTS = st.one_of(st.integers(), st.integers(2**63, 2**200), st.integers(-(2**200), -(2**63) - 1))
ARRAY_SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    FLOATS,
    TEXT,
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),  # written as the string "True" or "False"
    hnp.arrays(np.float64, ARRAY_SHAPES, elements=FLOATS),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(FLOATS, max_size=5),  # a row of floats, as ndarray.tolist gives it
        st.dictionaries(TEXT, inner, max_size=5),
    ),
    max_leaves=20,
)


@SETTINGS
@given(VALUES)
def test_json_text_is_json_dumps_of_the_value_made_json(value):
    assert _json_text(value) == json.dumps(jsonable(value), sort_keys=True, indent=2)


@SETTINGS
@given(st.lists(st.one_of(FLOATS, INTS, st.booleans()), min_size=1, max_size=8))
def test_a_row_that_starts_with_a_float_is_written_item_by_item(row):
    row[0] = float(row[0])
    assert _json_text(row) == json.dumps(row, sort_keys=True, indent=2)


def checks():
    named = st.builds(lambda *a: a, TEXT, TEXT)
    bounded = st.builds(
        lambda n, v, b, i: Check(*n, v, b, i),
        named,
        st.one_of(FLOATS, FLOATS.map(np.float64)),
        st.one_of(FLOATS, FLOATS.map(np.float64)),
        st.dictionaries(TEXT, VALUES, max_size=3),
    )
    # without a bound a check carries its verdict, and its value may be any value
    unbounded = st.builds(
        lambda n, v, i, verdict: Check(*n, v, None, i, verdict),
        named,
        st.one_of(st.none(), VALUES),
        st.dictionaries(TEXT, VALUES, max_size=3),
        st.booleans(),
    )
    return st.one_of(bounded, unbounded)


REPORTS = st.builds(
    Report,
    command=TEXT,
    input_name=TEXT,
    input_hash=TEXT,
    tolerance=st.one_of(FLOATS, FLOATS.map(np.float64)),
    checks=st.lists(checks(), max_size=4),
    classification=TEXT,
    errors=st.lists(st.dictionaries(TEXT, TEXT, max_size=3), max_size=2),
    results=st.dictionaries(TEXT, VALUES, max_size=4),
)


@settings(SETTINGS, max_examples=50)
@given(REPORTS)
def test_report_dumps_is_json_dumps_of_its_fields(report):
    assert report.dumps() == reference_report(report)


@pytest.mark.parametrize(
    "value",
    [{1: "a"}, {"a": 1, 2: "b"}, {None: 0}, [{"x": {(0, 1): 1.0}}], {b"k": 1}],
)
def test_a_key_that_is_not_a_str_raises_type_error(value):
    with pytest.raises(TypeError):
        _json_text(value)
    report = Report("fit", "x", "", 1e-9, results={"r": value})
    with pytest.raises(TypeError):
        report.dumps()
