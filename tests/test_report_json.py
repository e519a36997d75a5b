"""``report_to_json`` writes what ``json.dumps(..., indent=2, sort_keys=True)`` writes."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from odeobs.model import parse_model  # noqa: E402
from odeobs.report import build_report, report_to_json  # noqa: E402

from conftest import model_path  # noqa: E402
from test_generated_reports import GENERATED  # noqa: E402


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


# non-ASCII, surrogates, control characters and quotes all need escaping
text = st.one_of(st.text(), st.sampled_from(["", "\x00\x1f\x7f", '"\\/', "é€\U0001f600", "\ud800"]))
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
    text,
)
values = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(text, kids, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(values)
def test_same_text_as_json_dumps(value):
    assert report_to_json(value) == _dumps(value)


@pytest.mark.parametrize("value", [{1: 2}, {"a": {None: 1}}, [object()], {"a": b"x"}, {"a": {1, 2}}])
def test_what_it_does_not_write_raises_type_error(value):
    with pytest.raises(TypeError):
        report_to_json(value)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_reports(name):
    report = build_report(parse_model(GENERATED[name]), seed=1)
    assert report_to_json(report) == _dumps(report)


@pytest.mark.parametrize("name", ["sir", "mm", "toy", "lv"])
def test_shipped_reports(name):
    report = build_report(parse_model(model_path(name).read_text()), seed=0)
    assert report_to_json(report) == _dumps(report)
