"""Drift and outputs of polynomial functions, computed on whole state columns.

``numeric._scalars`` runs a list of functions built from ``+``, ``-`` and
``*`` alone on the trajectory's columns with numpy, and any other list row
by row over Python floats; both call the same printed scalar function.  The
column values must be its bits on each row, which must be a plain tree
walk's bits (the printed source leaves out unit parameters, the walk
multiplies by them), on trajectories that hold the values where float
arithmetic is least forgiving.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from odeobs.expr import Const, FloatPrinter, add, mul, neg, parse_expr, sym  # noqa: E402
from odeobs.model import parse_model  # noqa: E402
from odeobs.numeric import (  # noqa: E402
    Trajectory,
    _scalar_function,
    _scalars,
    conserved_drift,
    integrate_rk4,
)

from conftest import A, B, X, Y, Z  # noqa: E402
from test_numeric import _by_row, _tree_walk  # noqa: E402

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)

# overflow, inf - inf, 0 * inf, signed zeros, the subnormal range and nan
EDGES = [
    math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, -1.0, 0.5, 3.0,
    1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200,
]
floats = st.one_of(st.sampled_from(EDGES), st.floats())
leaves = st.one_of(
    st.sampled_from([sym(s) for s in (X, Y, Z, A, B)]),
    st.fractions(min_value=-6, max_value=6, max_denominator=4).map(Const),
)
polynomials = st.recursive(
    leaves,
    lambda kids: st.one_of(
        st.lists(kids, min_size=2, max_size=3).map(lambda terms: add(*terms)),
        st.lists(kids, min_size=2, max_size=3).map(lambda factors: mul(*factors)),
        kids.map(neg),
    ),
    max_leaves=12,
)


def _trajectory(rows, a, b):
    values = np.array(rows, dtype=float).reshape(len(rows), 3)
    return Trajectory((X, Y, Z), np.arange(len(rows)) * 0.1, values, {"a": a, "b": b})


def _hex(values):
    return [float(v).hex() for v in values]


@SETTINGS
@given(
    exprs=st.lists(polynomials, min_size=1, max_size=3),
    rows=st.lists(st.tuples(floats, floats, floats), min_size=1, max_size=6),
    a=st.one_of(st.just(1.0), floats),
    b=st.one_of(st.just(1.0), floats),
)
# inf - inf on the grid, and a function of no state next to one of a state
@example(
    exprs=[add(sym(X), neg(sym(Y))), mul(sym(A), sym(B)), Const(Fraction(3))],
    rows=[(math.inf, math.inf, 0.0), (1.0, -0.0, 0.0)],
    a=1.0,
    b=1e308,
)
def test_columns_are_the_row_programs_bits(exprs, rows, a, b):
    traj = _trajectory(rows, a, b)
    params = {A: a, B: b}
    assert FloatPrinter(exprs, params).polynomial
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        columns = _scalars(traj, exprs)(traj)
    function = _scalar_function(FloatPrinter(exprs, params), (X, Y, Z))
    for row, got, expected in zip(rows, columns, _by_row(function, rows)):
        walked = [_tree_walk(e, {X: row[0], Y: row[1], Z: row[2], **params}) for e in exprs]
        assert _hex(got) == _hex(expected) == _hex(walked)


def test_a_quotient_keeps_the_row_program():
    symbols = {"x": X, "y": Y, "z": Z, "a": A, "b": B}
    assert not FloatPrinter([parse_expr("x*y + 1/(z - 1)", symbols)], {}).polynomial
    for text in ("x^2", "ln(x)", "exp(x)", "x/a"):
        assert not FloatPrinter([parse_expr(text, symbols)], {A: 1.0}).polynomial


STILL = parse_model(
    "model: still\nparams: a\nstates: x, y\ndx/dt = a - a\ndy/dt = a - a\n"
)


def test_pole_on_the_grid_raises_the_row_programs_error():
    traj = integrate_rk4(STILL, (1.0, 1.0), {"a": 1.0}, 0.1, 1.0)
    quantity = parse_expr("x*y + 1/(y - 1)", STILL.symbol_table())
    function = _scalar_function(FloatPrinter([quantity], {STILL.params[0]: 1.0}), STILL.states)
    with pytest.raises(ZeroDivisionError) as expected:
        _by_row(function, traj.values.tolist())
    with pytest.raises(ZeroDivisionError) as got:
        conserved_drift(traj, quantity)
    assert str(got.value) == str(expected.value)


def test_overflow_and_inf_minus_inf_leak_no_warning():
    traj = integrate_rk4(STILL, (1e200, 1.0), {"a": 1.0}, 0.1, 1.0)
    symbols = STILL.symbol_table()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # x*x overflows to inf, and inf - inf is nan on every row
        assert math.isnan(conserved_drift(traj, parse_expr("x*x - x*x*y", symbols)))
        assert math.isnan(conserved_drift(traj, parse_expr("a*x*x*x", symbols)))
        assert conserved_drift(traj, parse_expr("a*a + 2", symbols)) == 0.0
