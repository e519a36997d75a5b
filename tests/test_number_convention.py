"""Exact values are ints when integral and Fractions only otherwise.

The smart constructors test the interned ``ZERO`` and ``ONE`` nodes by
identity.  They are checked here against a copy of the value-comparing
constructors and derivative they replaced: on seeded random expressions,
hand-built nodes out of normal form included, both must return the very
same node.  So must :func:`~odeobs.expr.diff` on the trees a report
differentiates: every Lie derivative and gradient entry of the bundled and
generated models and of their candidate systems, and the gradient that an
embedding keeps for each of its components, which the Jacobian reads.  The number types that
leave the exact layers are checked too: sample points, zero-test witnesses
and polynomial coefficients.
"""

import copy
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from odeobs import embedding
from odeobs.conserved import eliminate_states
from odeobs.embedding import build_embedding, generic_rank_of, jacobian, observability_verdict
from odeobs.expr import (
    ONE,
    ZERO,
    Add,
    Const,
    Div,
    DivisionByZeroError,
    Exp,
    Ln,
    Mul,
    Neg,
    PowInt,
    Sym,
    TranscendentalNodeError,
    add,
    as_expr,
    children,
    diff,
    div,
    exp,
    ln,
    mul,
    neg,
    parse_expr,
    pow_int,
    sym,
)
from odeobs.linalg import SingularMatrixError
from odeobs.model import (
    EXACT,
    PROBABILISTIC,
    ConservedSet,
    NotAffineError,
    ZeroCoefficientError,
    along_field,
    parse_model,
    verify_all_conserved,
)
from odeobs.poly import NONZERO_EXACT, PROBABLY_NONZERO, is_zero, normalize_rational

from conftest import GEN_SYMBOLS, X, Y, model_path
from test_generated_reports import chain, mm_tail, twin

# ---------------------------------------------------------------------------
# the reference: constructors and derivative that compare constant values


def ref_add(*terms):
    flat = []
    c = 0
    stack = [as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        if isinstance(t, Add):
            stack.extend(reversed(t.terms))
        elif isinstance(t, Const):
            if t.value:
                c = c + t.value if c else t.value
        else:
            flat.append(t)
    if c:
        flat.append(Const(c))
    if not flat:
        return Const(Fraction(0))
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def ref_mul(*factors):
    flat = []
    c = 1
    stack = [as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        if isinstance(f, Mul):
            stack.extend(reversed(f.factors))
        elif isinstance(f, Neg):
            c = -c
            stack.append(f.arg)
        elif isinstance(f, Const):
            if f.value != 1:
                c *= f.value
        else:
            flat.append(f)
    if c == 0:
        return Const(Fraction(0))
    core = flat
    if abs(c) != 1:
        core = [Const(abs(c))] + core
    if not core:
        return Const(Fraction(c))
    result = core[0] if len(core) == 1 else Mul(tuple(core))
    return ref_neg(result) if c < 0 else result


def ref_neg(e):
    e = as_expr(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def ref_div(num, den):
    num, den = as_expr(num), as_expr(den)
    sign = 1
    if isinstance(num, Neg):
        sign, num = -sign, num.arg
    if isinstance(den, Neg):
        sign, den = -sign, den.arg
    if isinstance(num, Const) and num.value < 0:
        sign, num = -sign, Const(-num.value)
    if isinstance(den, Const) and den.value < 0:
        sign, den = -sign, Const(-den.value)
    if isinstance(den, Const) and den.value != 0:
        if isinstance(num, Const):
            v = num.value / den.value
            return Const(-v if sign < 0 else v)
        if den.value == 1:
            return ref_neg(num) if sign < 0 else num
    if isinstance(num, Const) and num.value == 0 and not (
        isinstance(den, Const) and den.value == 0
    ):
        return Const(Fraction(0))
    result = Div(num, den)
    return Neg(result) if sign < 0 else result


def ref_pow_int(base, exponent):
    base = as_expr(base)
    if exponent == 0:
        return Const(Fraction(1))
    if exponent == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0 and exponent < 0):
        return Const(base.value**exponent)
    if isinstance(base, Neg):
        inner = ref_pow_int(base.arg, exponent)
        return inner if exponent % 2 == 0 else ref_neg(inner)
    if isinstance(base, PowInt):
        return ref_pow_int(base.base, base.exponent * exponent)
    return PowInt(base, exponent)


def ref_diff(e, v, memo):
    """A full walk with the rules of ``diff``: no subtree is skipped."""
    hit = memo.get(e)
    if hit is not None:
        return hit
    if isinstance(e, Const):
        d = Const(Fraction(0))
    elif isinstance(e, Sym):
        d = Const(Fraction(1 if e.symbol is v else 0))
    elif isinstance(e, Add):
        d = ref_add(*[ref_diff(t, v, memo) for t in e.terms])
    elif isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = ref_diff(f, v, memo)
            if isinstance(df, Const) and df.value == 0:
                continue
            terms.append(ref_mul(*e.factors[:i], df, *e.factors[i + 1 :]))
        d = ref_add(*terms)
    elif isinstance(e, Neg):
        d = ref_neg(ref_diff(e.arg, v, memo))
    elif isinstance(e, Div):
        dn, dd = ref_diff(e.num, v, memo), ref_diff(e.den, v, memo)
        if isinstance(dd, Const) and dd.value == 0:
            d = ref_div(dn, e.den)
        else:
            d = ref_div(
                ref_add(ref_mul(dn, e.den), ref_neg(ref_mul(e.num, dd))),
                ref_pow_int(e.den, 2),
            )
    elif isinstance(e, PowInt):
        d = ref_mul(
            Const(Fraction(e.exponent)),
            ref_pow_int(e.base, e.exponent - 1),
            ref_diff(e.base, v, memo),
        )
    elif isinstance(e, Ln):
        d = ref_div(ref_diff(e.arg, v, memo), e.arg)
    elif isinstance(e, Exp):
        d = ref_mul(e, ref_diff(e.arg, v, memo))
    else:
        raise TypeError(f"unhandled node {e!r}")
    memo[e] = d
    return d


# ---------------------------------------------------------------------------
# random expressions, hand-built nodes out of normal form included

CONSTANTS = (
    Fraction(0),
    Fraction(1),
    Fraction(-1),
    Fraction(1, 3),
    Fraction(-2, 3),
    Fraction(2),
)


INT_CONSTANTS = tuple(c for c in CONSTANTS if c.denominator == 1)


def raw_expr(rng, depth, constants=CONSTANTS):
    """An expression built by the smart constructors or by the node classes
    directly: an Add or Mul inside its own kind, ``Neg(Neg(x))``, a negative
    constant factor, a quotient by a constant zero."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.4:
            return Const(rng.choice(constants))
        return sym(rng.choice(GEN_SYMBOLS))
    kids = [raw_expr(rng, depth - 1, constants) for _ in range(rng.randint(2, 3))]
    raw = rng.random() < 0.5
    choice = rng.random()
    if choice < 0.25:
        return Add(tuple(kids)) if raw else add(*kids)
    if choice < 0.5:
        return Mul(tuple(kids)) if raw else mul(*kids)
    if choice < 0.62:
        return Neg(kids[0]) if raw else neg(kids[0])
    if choice < 0.77:
        den = ZERO if rng.random() < 0.2 else kids[1]
        return Div(kids[0], den) if raw else div(kids[0], den)
    if choice < 0.9:
        exponent = rng.choice((2, 3, -1, -2))
        return PowInt(kids[0], exponent) if raw else pow_int(kids[0], exponent)
    return Ln(kids[0]) if rng.random() < 0.5 else Exp(kids[0])


def nodes(e):
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


def operand(rng, e):
    """``e``, or now and then a plain int or Fraction in its place."""
    pick = rng.random()
    if pick < 0.1:
        return rng.choice((0, 1, -1, 2))
    if pick < 0.15:
        return rng.choice(CONSTANTS)
    return e


# ---------------------------------------------------------------------------
# the trees a report differentiates

MODEL_TEXTS = {
    **{name: model_path(name).read_text() for name in ("sir", "mm", "toy", "lv")},
    "chain7": chain(7),
    "twin3": twin(3),
    "mm_tail2": mm_tail(2),
    # none of the models above has a constant other than -1 in a product;
    # dimerization 2A <-> B with a catalyst C has squares, 2 and 1/2
    "dimer": "\n".join(
        [
            "model: dimer",
            "params: k1, k2",
            "states: A, B, C",
            "dA/dt = 2*k2*B - 2*k1*A^2*C",
            "dB/dt = k1*A^2*C - k2*B",
            "dC/dt = 0",
            "conserved T: A + 2*B",
            "observe A: A",
        ]
    )
    + "\n",
}


def report_systems(text):
    """The verified system and every candidate system the report's search
    can build from it: each quantity alone and all of them jointly, solved
    for each set of the states they mention that elimination accepts."""
    sys, _ = verify_all_conserved(parse_model(text))
    systems = [sys]
    usable = [q for q in sys.conserved if q.verified in (EXACT, PROBABILISTIC)]
    groups = [(q,) for q in usable] + ([tuple(usable)] if len(usable) > 1 else [])
    for quantities in groups:
        g = ConservedSet(quantities)
        for w in itertools.combinations(g.state_vars(sys), len(quantities)):
            try:
                systems.append(eliminate_states(sys, g, w))
            except (NotAffineError, ZeroCoefficientError, SingularMatrixError):
                pass
    return systems


class TestIdentityOracle:
    def test_constructors_and_diff_return_the_reference_node(self):
        rng = random.Random(1301)
        for _ in range(1000):
            exprs = [raw_expr(rng, depth=3) for _ in range(3)]
            args = [operand(rng, e) for e in exprs]
            assert add(*args) is ref_add(*args)
            assert mul(*args) is ref_mul(*args)
            assert add(*args[:1]) is ref_add(*args[:1])
            assert mul(*args[:1]) is ref_mul(*args[:1])
            assert div(*args[:2]) is ref_div(*args[:2])
            assert div(*args[1:]) is ref_div(*args[1:])
            assert neg(args[0]) is ref_neg(args[0])
            for e in exprs:
                assert neg(e) is ref_neg(e)
                exponent = rng.choice((0, 1, 2, 3, -1, -2))
                assert pow_int(e, exponent) is ref_pow_int(e, exponent)
                v = rng.choice(GEN_SYMBOLS)
                assert diff(e, v) is ref_diff(e, v, {})
        assert add() is ref_add() is ZERO
        assert mul() is ref_mul() is ONE

    def test_corpus_has_the_cases_out_of_normal_form(self):
        rng = random.Random(1301)
        seen = set()
        for _ in range(1000):
            for e in nodes(raw_expr(rng, depth=3)):
                if isinstance(e, Const):
                    seen.add(e.value)
                elif isinstance(e, Neg) and isinstance(e.arg, Neg):
                    seen.add("Neg(Neg)")
                elif isinstance(e, Add) and any(isinstance(t, Add) for t in e.terms):
                    seen.add("Add in Add")
                elif isinstance(e, Mul) and any(isinstance(f, Mul) for f in e.factors):
                    seen.add("Mul in Mul")
                elif isinstance(e, Div) and e.den is ZERO:
                    seen.add("Div by 0")
        assert {"Neg(Neg)", "Add in Add", "Mul in Mul", "Div by 0"} <= seen
        assert set(CONSTANTS) <= seen

    @pytest.mark.parametrize("name", sorted(MODEL_TEXTS))
    def test_diff_of_embedding_trees_returns_the_reference_node(self, name):
        # L^k x_j to order n-1 and each gradient entry, differentiated by
        # every state: the product and sum rules' direct builds on real trees
        systems = report_systems(MODEL_TEXTS[name])
        assert len(systems) > 1 or name == "lv"
        for sys in systems:
            memos = [{} for _ in sys.states]
            ref_memos = [{} for _ in sys.states]
            for x in sys.states:
                component = sym(x)
                for k in range(sys.n):
                    gradient = []
                    for s, memo, ref_memo in zip(sys.states, memos, ref_memos):
                        d = diff(component, s, memo)
                        assert d is ref_diff(component, s, ref_memo)
                        gradient.append(d)
                    for entry in gradient:
                        for s, memo, ref_memo in zip(sys.states, memos, ref_memos):
                            assert diff(entry, s, memo) is ref_diff(entry, s, ref_memo)
                    if k < sys.n - 1:
                        component = along_field(sys, gradient)

    @pytest.mark.parametrize("name", sorted(MODEL_TEXTS))
    def test_embedding_keeps_each_components_gradient(self, monkeypatch, name):
        # one stored row per component, the very nodes a fresh diff returns,
        # and the Jacobian reads them without differentiating
        embeddings = [
            (sys, build_embedding(sys, obs))
            for sys in report_systems(MODEL_TEXTS[name])
            for obs in sys.observations
        ]
        for sys, emb in embeddings:
            assert len(emb.gradients) == len(emb.components)
            for component, gradient in zip(emb.components, emb.gradients):
                assert all(d is diff(component, s) for d, s in zip(gradient, sys.states))
        calls = []
        monkeypatch.setattr(embedding, "diff", lambda *args: calls.append(args))
        for sys, emb in embeddings:
            assert jacobian(emb, sys).entries is emb.gradients
        assert calls == []

    def test_zero_and_one_are_the_interned_nodes(self):
        assert Const(0) is ZERO
        assert Const(Fraction(0, 5)) is ZERO
        assert Const(Fraction(2, 2)) is ONE
        assert Const(1) is ONE
        assert neg(ZERO) is ZERO
        assert neg(neg(ONE)) is ONE
        for node in (ZERO, ONE):
            assert copy.copy(node) is node
            assert copy.deepcopy(node) is node
            assert pickle.loads(pickle.dumps(node)) is node


# ---------------------------------------------------------------------------
# the number types that leave the exact layers


def all_ints(point):
    return all(type(v) is int for v in point.values())


class TestNumberTypes:
    @pytest.mark.parametrize("name", ["sir", "mm", "toy", "lv"])
    def test_sample_points_are_ints(self, name):
        model = parse_model(model_path(name).read_text())
        for obs in model.observations:
            verdict = observability_verdict(model, obs, seed=3)
            assert verdict.rank.sample_points
            assert all(all_ints(p) for p in verdict.rank.sample_points)

    def test_ln_exp_sample_points_are_ints(self):
        e = exp(mul(sym(X), sym(Y)))
        verdict = generic_rank_of([[e, ln(add(pow_int(sym(X), 2), 1))]], seed=0)
        assert verdict.confidence == "probabilistic"
        assert all(all_ints(p) for p in verdict.sample_points)

    def test_sample_points_sort_by_values_in_name_order(self):
        table = {s.name: s for s in GEN_SYMBOLS}
        # symbol order puts states before parameters; the points sort by name
        e = parse_expr("a*x + b*y^2 + z", table)
        verdict = generic_rank_of([[e, diff(e, X)]], seed=5)
        keys = [[p[s] for s in sorted(p, key=lambda s: s.name)] for p in verdict.sample_points]
        assert keys == sorted(keys)
        assert [s.name for s in verdict.sample_points[0]] == ["x", "y", "z", "a", "b"]

    def test_zero_test_witnesses_are_ints(self):
        table = {s.name: s for s in GEN_SYMBOLS}
        result = is_zero(parse_expr("x*y - a", table))
        assert result.kind == NONZERO_EXACT
        assert result.witness and all_ints(result.witness)
        result = is_zero(parse_expr("ln(x^2 + 1) - ln(y^2 + 1)", table))
        assert result.kind == PROBABLY_NONZERO
        assert result.witness and all_ints(result.witness)

    def test_rational_form_coefficients_are_ints_unless_not_integral(self):
        table = {s.name: s for s in GEN_SYMBOLS}
        for text in ("x/(y + 3) - 2*a^2/(x - b)", "(x + 1)^3/(2*y)", "(x*3/3 - 4)*(y + 1)"):
            form = normalize_rational(parse_expr(text, table))
            for poly in (form.num, form.den):
                assert poly.coeffs and all(type(c) is int for c in poly.coeffs.values())
        form = normalize_rational(parse_expr("x + 1/3", table))
        assert form.num.coeffs == {(1,): 1, (0,): Fraction(1, 3)}
        assert [type(c) for c in form.num.coeffs.values()] == [int, Fraction]
        # a Fraction coefficient that becomes integral is an int again
        form = normalize_rational(parse_expr("(x + 1/3)*3", table))
        assert [type(c) for c in form.num.coeffs.values()] == [int, int]

    def test_random_integer_forms_have_int_coefficients(self):
        rng = random.Random(1303)
        checked = 0
        while checked < 300:
            e = raw_expr(rng, depth=3, constants=INT_CONSTANTS)
            if any(isinstance(n, Const) and n.value.denominator != 1 for n in nodes(e)):
                continue  # an integer quotient folded to a constant
            try:
                form = normalize_rational(e)
            except (DivisionByZeroError, TranscendentalNodeError):
                continue
            for poly in (form.num, form.den):
                assert all(type(c) is int for c in poly.coeffs.values())
            checked += 1
