"""Elimination of states through conserved quantities.

The shipped models only conserve sums with unit coefficients.  The dimer
(``T = A + 2*B``) and the ``Q = x/3 + y`` model below exercise the general
coefficient; every single-quantity reduction is compared with the partner-sum
formula, and the reports of both models are pinned.
"""

import hashlib
from fractions import Fraction

import pytest

from odeobs.cli import main
from odeobs.conserved import NotSquareError, eliminate_states
from odeobs.expr import (
    Const,
    Sym,
    Symbol,
    UnknownSymbolError,
    add,
    diff,
    div,
    mul,
    neg,
    parse_expr,
    substitute,
)
from odeobs.model import (
    ConservedQuantity,
    ConservedSet,
    ModelError,
    ZeroCoefficientError,
    load_model,
    parse_model,
    reduce_by_conserved,
    verify_all_conserved,
)
from odeobs.poly import ZERO_EXACT, is_zero
from odeobs.report import build_report, report_to_json

from conftest import model_path

DIMER = """model: dimer
params: k, km
states: A, B, C
dA/dt = -2*k*A^2 + 2*km*B
dB/dt = k*A^2 - km*B
dC/dt = A - C
conserved T: A + 2*B
observe A: A
observe C: C
"""

THIRD = """model: third
params: k
states: x, y
dx/dt = -3*k*x
dy/dt = k*x
conserved Q: x/3 + y
observe y: y
"""

GENERATED = {"dimer": DIMER, "third": THIRD}

# recorded with the single-quantity reduction computed by the partner-sum formula
DIGESTS = {
    ("dimer", 0): "da891716d48ca8639e07a7d5e001d18b258b80fb63fc79f7807868ace9524803",
    ("dimer", 1): "10d2c74f9d16f1471bf4a5568a5b025942f81e129809dfef364fcd054e434ff7",
    ("third", 0): "2d993736a5dedf851ebf3025a61ca21869baa75187d020c3b2f4cab33fe4cb7e",
    ("third", 1): "12ed24d47df748f4a9238018d1ca581d091db446af01c7eb42a460509d90e1fe",
}

# every (quantity, state) pair with a nonzero constant coefficient
REDUCTIONS = [
    ("sir", "N", "S"),
    ("sir", "N", "I"),
    ("sir", "N", "R"),
    ("mm", "E0", "e"),
    ("mm", "E0", "c"),
    ("mm", "S0", "s"),
    ("mm", "S0", "c"),
    ("mm", "S0", "p"),
    ("toy", "Q0", "R"),
    ("toy", "Q0", "S"),
    ("dimer", "T", "A"),
    ("dimer", "T", "B"),
    ("third", "Q", "x"),
    ("third", "Q", "y"),
]


def _verified(name):
    sys = parse_model(GENERATED[name]) if name in GENERATED else load_model(model_path(name))
    verified, verdicts = verify_all_conserved(sys)
    assert all(v.status == "exact" for v in verdicts)
    return verified


def partner_sum_reduction(sys, quantity, var):
    """Right-hand sides of the reduction by H(x) = level solved for ``var``.

    With a the coefficient of ``var`` and w_i that of every other state,
    ``var = (level - H|var=0)/a`` is substituted into the other equations f_i,
    and d(var)/dt = -(1/a) * sum_i w_i * f_i.
    """
    a = diff(quantity.expr, var)
    rest = substitute(quantity.expr, {var: Const(Fraction(0))})
    solution = div(add(Sym(quantity.level_symbol()), neg(rest)), a)
    rhs = {
        s: substitute(f, {var: solution}) for s, f in zip(sys.states, sys.rhs) if s != var
    }
    partners = [mul(diff(quantity.expr, s), f) for s, f in rhs.items()]
    rhs[var] = neg(div(add(*partners), a))
    return rhs


@pytest.mark.parametrize("name,level,var", REDUCTIONS, ids=lambda x: x)
def test_reduction_matches_partner_sum_formula(name, level, var):
    sys = _verified(name)
    quantity = sys.conserved_named(level)
    state = sys.state_named(var)
    red = reduce_by_conserved(sys, quantity, state)
    assert red.name == f"{sys.name}.{level}_for_{var}"
    assert red.params == sys.params + (quantity.level_symbol(),)
    expected = partner_sum_reduction(sys, quantity, state)
    for s, f in zip(red.states, red.rhs):
        assert is_zero(add(f, neg(expected[s]))).kind == ZERO_EXACT, s.name


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_report_bytes_unchanged(name, seed):
    report = report_to_json(build_report(parse_model(GENERATED[name]), seed=seed))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == DIGESTS[name, seed]


@pytest.mark.parametrize(
    "model,spec,message",
    [
        ("dimer", "T:C", "conserved quantity has zero coefficient on C"),
        ("lv", "Q0:r", "conserved quantity is not affine in r"),
    ],
)
def test_graph_reduce_unsolvable_is_analysis_error(tmp_path, capsys, model, spec, message):
    if model in GENERATED:
        path = tmp_path / f"{model}.model"
        path.write_text(GENERATED[model], encoding="utf-8")
    else:
        path = model_path(model)
    code = main(["graph", str(path), "--reduce", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"analysis error: {message}\n"


class TestEliminateStatesChecks:
    """Argument checks run before any solve, in a fixed order."""

    def test_count_before_state(self):
        sys = _verified("dimer")
        g = ConservedSet(sys.conserved)
        with pytest.raises(NotSquareError):
            eliminate_states(sys, g, (Symbol("k", "parameter"), sys.state_named("A")))

    def test_state_before_verification(self):
        sys = parse_model(DIMER)
        with pytest.raises(UnknownSymbolError):
            eliminate_states(sys, ConservedSet(sys.conserved), (Symbol("k", "parameter"),))

    def test_verification_before_collision(self):
        sys = parse_model(DIMER)
        clash = ConservedQuantity(sys.conserved[0].expr, "k")
        with pytest.raises(ModelError, match="must be verified"):
            eliminate_states(sys, ConservedSet((clash,)), (sys.state_named("A"),))

    def test_collision_before_solve(self):
        sys = _verified("dimer")
        clash = ConservedQuantity(sys.conserved[0].expr, "k", verified="exact")
        with pytest.raises(ModelError, match="collides"):
            eliminate_states(sys, ConservedSet((clash,)), (sys.state_named("C"),))

    def test_joint_zero_column(self):
        # solving for C, which no quantity mentions, is a zero coefficient
        # whatever the number of quantities
        sys = _verified("dimer")
        extra = ConservedQuantity(parse_expr("A + B", sys.symbol_table()), "U", verified="exact")
        g = ConservedSet(sys.conserved + (extra,))
        with pytest.raises(ZeroCoefficientError, match="zero coefficient on C"):
            eliminate_states(sys, g, (sys.state_named("B"), sys.state_named("C")))
