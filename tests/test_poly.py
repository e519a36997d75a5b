import math
import random
import time
from fractions import Fraction

import pytest

from odeobs.expr import (
    ONE,
    Add,
    Const,
    Div,
    DivisionByZeroError,
    Mul,
    Neg,
    PowInt,
    Sym,
    Symbol,
    add,
    diff,
    div,
    eval_exact,
    eval_float,
    mul,
    neg,
    parse_expr,
    pow_int,
    sym,
)
from odeobs.poly import (
    PROBABLY_NONZERO,
    PROBABLY_ZERO,
    ZERO_EXACT,
    Poly,
    ZeroTestUndecidedError,
    _default_order,
    draw_point,
    is_zero,
    normalize_rational,
    rational_symbols,
)
from odeobs.report import build_report

from conftest import random_expr, random_point

S = Symbol("S", "state")
I = Symbol("I", "state")
X = Symbol("x", "state")
Y = Symbol("y", "state")
Z = Symbol("z", "state")


class TestNormalize:
    def test_sum_over_common_denominator(self):
        table = {"S": S, "I": I}
        rf = normalize_rational(parse_expr("S/I + 1", table))
        assert rf.num == Poly((I, S), {(0, 1): Fraction(1), (1, 0): Fraction(1)})
        assert rf.den == Poly((I, S), {(1, 0): Fraction(1)})

    def test_gcd_cancellation(self):
        # the form is not reduced: (x^2 - 1)/(x - 1) keeps its factor x - 1,
        # is the function x + 1, and depends on x; x*y/x depends on y only
        y = Symbol("y", "state")
        table = {"x": X, "y": y}
        e = parse_expr("(x^2 - 1)/(x - 1)", table)
        rf = normalize_rational(e)
        assert rf.num == Poly((X,), {(2,): Fraction(1), (0,): Fraction(-1)})
        assert rf.den == Poly((X,), {(1,): Fraction(1), (0,): Fraction(-1)})
        assert is_zero(add(e, neg(parse_expr("x + 1", table)))).kind == ZERO_EXACT
        assert rational_symbols(e) == {X}
        assert rational_symbols(parse_expr("x*y/x", table)) == {y}

    def test_lv_gradient_residual_is_zero_form(self):
        # grad(H) . f for the logarithmic first integral has a zero numerator
        names = {
            n: Symbol(n, "state" if n in ("r", "m") else "parameter")
            for n in ("r", "m", "R", "D", "B", "M")
        }
        h = parse_expr("R*ln(m) + M*ln(r) - D*m - B*r", names)
        f_r = parse_expr("R*r - D*r*m", names)
        f_m = parse_expr("B*r*m - M*m", names)
        residual = add(
            mul(diff(h, names["r"]), f_r), mul(diff(h, names["m"]), f_m)
        )
        rf = normalize_rational(residual)
        assert rf.num.is_zero
        # independent float oracle: residual vanishes at random positive points
        rng = random.Random(23)
        for _ in range(20):
            point = {s: rng.uniform(0.2, 8.0) for s in names.values()}
            assert eval_float(residual, point) == pytest.approx(0.0, abs=1e-9)

    def test_identically_zero_denominator_rejected(self):
        e = parse_expr("1/(x - x)", {"x": X})
        with pytest.raises(DivisionByZeroError):
            normalize_rational(e)

    def test_eval_agreement_with_source_expression(self):
        rng = random.Random(29)
        checked = 0
        while checked < 120:
            e = random_expr(rng, depth=4)
            point = random_point(rng)
            try:
                direct = eval_exact(e, point)
                rf = normalize_rational(e)
                via_form = rf.eval(point)
            except (DivisionByZeroError, ZeroDivisionError):
                continue
            assert direct == via_form
            checked += 1

    def test_canonical_form_is_deterministic(self):
        rng = random.Random(31)
        for _ in range(40):
            e = random_expr(rng, depth=3)
            a = normalize_rational(e)
            b = normalize_rational(e)
            assert a.num == b.num and a.den == b.den


class TestIsZero:
    def test_sir_population_invariant(self):
        names = {
            n: Symbol(n, "state" if n in "SIR" else "parameter")
            for n in ("S", "I", "R", "beta", "lam")
        }
        h = parse_expr("S + I + R", names)
        fs = [
            parse_expr("-beta*S*I", names),
            parse_expr("beta*S*I - lam*I", names),
            parse_expr("lam*I", names),
        ]
        residual = add(
            *[mul(diff(h, names[v]), f) for v, f in zip("SIR", fs)]
        )
        assert is_zero(residual).kind == ZERO_EXACT

    def test_lv_residual_zero(self):
        names = {
            n: Symbol(n, "state" if n in ("r", "m") else "parameter")
            for n in ("r", "m", "R", "D", "B", "M")
        }
        h = parse_expr("R*ln(m) + M*ln(r) - D*m - B*r", names)
        f_r = parse_expr("R*r - D*r*m", names)
        f_m = parse_expr("B*r*m - M*m", names)
        residual = add(
            mul(diff(h, names["r"]), f_r), mul(diff(h, names["m"]), f_m)
        )
        assert is_zero(residual).kind == ZERO_EXACT

    def test_nonzero_monomial_with_witness(self):
        names = {
            n: Symbol(n, "state" if n in "SI" else "parameter")
            for n in ("S", "I", "beta")
        }
        e = parse_expr("beta*S*I", names)
        result = is_zero(e)
        assert not result.is_zero_like
        assert result.witness is not None
        assert eval_exact(e, result.witness) != 0

    def test_witness_skips_a_pole_where_n_and_d_are_nonzero(self):
        # N/D = (2*x - 770880)/1, but the tree has a pole at x = 770880, the
        # first point drawn at seed 0: the witness is the next point
        e = parse_expr("x + 1/(1/(x - 770880))", {"x": X})
        result = is_zero(e, seed=0)
        assert result.witness is not None and result.witness[X] != 770880
        assert eval_exact(e, result.witness) != 0

    def test_e_minus_e_is_zero(self):
        rng = random.Random(41)
        for _ in range(80):
            e = random_expr(rng, depth=3)
            assert is_zero(add(e, neg(e))).kind == ZERO_EXACT

    def test_transcendental_identity_sampled(self):
        # exp products are outside the exact path; the float sampler decides
        from odeobs.expr import exp as exp_

        e = add(
            mul(exp_(sym(X)), exp_(sym(X))),
            neg(mul(exp_(sym(X)), exp_(sym(X)))),
        )
        result = is_zero(e)
        assert result.kind == PROBABLY_ZERO
        assert result.trials > 0
        # a genuinely transcendental zero: ln(x^2) - 2*ln(x) on x > 0 domain
        two_ln = add(parse_expr("ln(x^2)", {"x": X}), mul(Const(Fraction(-2)), parse_expr("ln(x)", {"x": X})))
        result = is_zero(two_ln, seed=1)
        assert result.kind == PROBABLY_ZERO
        assert result.trials > 0

    def test_transcendental_nonzero_sampled(self):
        e = parse_expr("ln(x) + 1", {"x": X})
        result = is_zero(e, seed=2)
        assert result.kind == PROBABLY_NONZERO
        assert result.witness is not None

    def test_no_sample_in_the_domain_is_an_error(self):
        k = Symbol("k", "parameter")
        e = parse_expr("ln(x)/(k - k)", (X, k))
        with pytest.raises(ZeroTestUndecidedError) as err:
            is_zero(e)
        assert err.value.args == (e, 3200)

    def test_ln_is_found_before_the_rational_terms_are_expanded(self):
        # e has degree 512 in x; expanding it before meeting ln(x) took 0.3 s
        e = sym(X)
        for _ in range(9):
            e = add(mul(e, e), ONE)
        log = parse_expr("ln(x)", {"x": X})
        for terms in ((e, log), (log, e)):
            best = math.inf
            for _ in range(3):
                start = time.perf_counter()
                result = is_zero(add(*terms))
                best = min(best, time.perf_counter() - start)
            assert result.kind == PROBABLY_NONZERO
            assert best < 0.01

    def test_pole_ahead_of_the_first_ln_reaches_the_sampler(self):
        # the sampler, not the rational expansion, meets the pole, so the
        # order of the terms does not decide the outcome
        k = Symbol("k", "parameter")
        for text in ("x/(k - k) + ln(x)", "ln(x) + x/(k - k)"):
            with pytest.raises(ZeroTestUndecidedError):
                is_zero(parse_expr(text, (X, k)))

    def test_seed_determinism(self):
        names = {"S": S, "I": I}
        e = parse_expr("S*I + 1", names)
        a = is_zero(e, seed=5)
        b = is_zero(e, seed=5)
        assert a == b


class ReferencePoly(Poly):
    """:class:`Poly` with the straightforward arithmetic on exponent tuples
    that the packed pass of :func:`normalize_rational` is tested against."""

    __slots__ = ()

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def constant(cls, vars, value):
        return cls(vars, {(0,) * len(vars): value})

    @classmethod
    def variable(cls, vars, symbol):
        mono = [0] * len(vars)
        mono[vars.index(symbol)] = 1
        return cls(vars, {tuple(mono): 1})

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return ReferencePoly(self.vars, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return ReferencePoly(self.vars, out)

    def __neg__(self):
        return ReferencePoly(self.vars, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, 0) + c1 * c2
        return ReferencePoly(self.vars, out)

    def derivative(self, index):
        """The partial derivative in ``vars[index]``."""
        out = {}
        for mono, coeff in self.coeffs.items():
            e = mono[index]
            if e:
                out[mono[:index] + (e - 1,) + mono[index + 1 :]] = coeff * e
        return ReferencePoly(self.vars, out)

    def power(self, n):
        if n < 0:
            raise ValueError("negative power on a polynomial")
        result = ReferencePoly.constant(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # the base is squared only for a bit still to come
                base = base * base
        return result


def _reference_pair(e, vars):
    """Numerator and denominator with every product formed, unit ones too."""
    one = ReferencePoly.constant(vars, Fraction(1))
    if isinstance(e, Const):
        return ReferencePoly.constant(vars, e.value), one
    if isinstance(e, Sym):
        return ReferencePoly.variable(vars, e.symbol), one
    if isinstance(e, Neg):
        n, d = _reference_pair(e.arg, vars)
        return -n, d
    if isinstance(e, Add):
        n, d = ReferencePoly.zero(vars), one
        for t in e.terms:
            tn, td = _reference_pair(t, vars)
            n = n * td + tn * d
            d = d * td
        return n, d
    if isinstance(e, Mul):
        n, d = one, one
        for f in e.factors:
            fn, fd = _reference_pair(f, vars)
            n = n * fn
            d = d * fd
        return n, d
    if isinstance(e, Div):
        nn, nd = _reference_pair(e.num, vars)
        dn, dd = _reference_pair(e.den, vars)
        return nn * dd, nd * dn
    assert isinstance(e, PowInt)
    bn, bd = _reference_pair(e.base, vars)
    k = e.exponent
    return (bn.power(k), bd.power(k)) if k >= 0 else (bd.power(-k), bn.power(-k))


def _reference_symbols(e):
    """The symbols x with N*dD/dx - D*dN/dx nonzero, N/D the reference pair."""
    vars = _default_order(e)
    num, den = _reference_pair(e, vars)
    return frozenset(
        v
        for i, v in enumerate(vars)
        if not (num * den.derivative(i) - den * num.derivative(i)).is_zero
    )


class TestFractionPair:
    def test_pairs_equal_a_reference_that_forms_every_product(self):
        rng = random.Random(83)
        cases = [random_expr(rng, depth=4, allow_div=i % 2 == 1) for i in range(400)]
        # quotients by a unit constant and negative powers, written raw
        cases += [Div(cases[0], ONE), PowInt(cases[1], -1), Div(ONE, cases[3])]
        for e in cases:
            vars = _default_order(e)
            expected = _reference_pair(e, vars)
            form = normalize_rational(e)
            got = form.num, form.den
            assert got == expected
            # the same terms, in the same order
            assert [list(p.coeffs.items()) for p in got] == [
                list(p.coeffs.items()) for p in expected
            ]

    def test_pairs_equal_the_reference_on_wide_and_cancelling_inputs(self):
        # inside the pass a monomial is one int of fixed-width exponent
        # fields; these inputs need wide fields, carry Fraction coefficients
        # through products, and cancel a monomial that a later term brings back
        y, z = sym(Y), sym(Z)
        x = sym(X)
        half_x = Mul((Const(Fraction(1, 2)), x))  # raw: mul() would fold 1/2 * 2
        cases = [
            pow_int(x, 70000),  # wider than any fixed field
            mul(pow_int(add(x, y), 9), pow_int(z, 300)),
            mul(pow_int(add(x, y), 7), add(x, y)),  # total degree 8 = 2^3
            div(pow_int(x, 3), pow_int(y, 4)),
            Mul((half_x, Mul((Const(2), y)))),
            add(mul(Fraction(1, 3), x), mul(Fraction(2, 3), x)),
            mul(add(mul(Fraction(3, 2), x), y), add(mul(Fraction(2, 3), x), neg(y))),
            # a quotient chain with negative powers
            div(
                div(pow_int(x, -2), pow_int(add(x, y), -3)),
                mul(pow_int(add(y, 1), -1), pow_int(div(z, add(x, 2)), -2)),
            ),
            PowInt(div(add(x, 1), y), -3),
            # x cancels in the third term and comes back last
            add(x, y, neg(x), x),
            add(div(x, y), z, neg(div(x, y)), div(x, y)),
            add(mul(add(x, y), add(x, neg(y))), mul(x, y), neg(pow_int(x, 2))),
            mul(add(x, y, z), add(x, neg(y)), add(y, neg(z), x)),
            # x^2 cancels in the middle of a product and comes back in it
            mul(add(1, x, pow_int(x, 2)), add(pow_int(x, 2), neg(x), 1)),
            # each quotient's degree sits in the other's denominator: x^18
            add(div(y, add(div(1, pow_int(x, 8)), x)), div(z, add(div(1, pow_int(x, 8)), x))),
        ]
        for e in cases:
            vars = _default_order(e)
            expected = _reference_pair(e, vars)
            form = normalize_rational(e)
            got = form.num, form.den
            assert got == expected
            assert [list(p.coeffs.items()) for p in got] == [
                list(p.coeffs.items()) for p in expected
            ]
            for p in got:
                for c in p.coeffs.values():
                    assert type(c) is int or c.denominator != 1
            assert rational_symbols(e) == _reference_symbols(e)
        assert normalize_rational(cases[0]).num.coeffs == {(70000,): 1}
        for e in cases[4:6]:  # (x/2)*(2*y) and x/3 + 2x/3: Fraction products and sums
            (coeff,) = normalize_rational(e).num.coeffs.values()
            assert type(coeff) is int and coeff == 1
        assert list(normalize_rational(cases[9]).num.coeffs) == [(0, 1), (1, 0)]

    def test_shared_dag_expands_once_per_node(self):
        # e -> e*x + e, 18 times: 4x more paths per level, 3 more nodes
        e = sym(X)
        for _ in range(18):
            e = add(mul(e, sym(X)), e)
        start = time.perf_counter()
        form = normalize_rational(e)
        elapsed = time.perf_counter() - start
        assert form == normalize_rational(mul(sym(X), pow_int(add(sym(X), 1), 18)))
        assert elapsed < 0.1


class TestPolyPower:
    def test_power_is_the_repeated_product_with_no_unused_square(self, monkeypatch):
        vars = (X, Y, Z)
        base = ReferencePoly(vars, {(1, 0, 0): 1, (0, 1, 0): 2, (0, 0, 1): Fraction(-1, 3), (0, 0, 0): 5})
        multiply = ReferencePoly.__mul__
        products = []

        def counted(self, other):
            products.append(1)
            return multiply(self, other)

        expected = ReferencePoly.constant(vars, 1)
        for n in range(10):
            monkeypatch.setattr(ReferencePoly, "__mul__", counted)
            products.clear()
            got = base.power(n)
            monkeypatch.setattr(ReferencePoly, "__mul__", multiply)
            assert got == expected
            # one square per bit below the top one, one product per set bit
            assert len(products) == max(n.bit_length() - 1, 0) + bin(n).count("1")
            expected = expected * base


class TestDrawPoint:
    @pytest.mark.parametrize("bound", [4, 8, 16, 1000, 10**6])
    def test_same_point_and_state_as_randint(self, bound):
        symbols = [Symbol(f"x{i}", "state") for i in range(6)]
        for seed in range(50):
            for n in range(7):
                ours, theirs = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    expected = {s: theirs.randint(-bound, bound) for s in symbols[:n]}
                    assert draw_point(ours, symbols[:n], bound) == expected
                assert ours.getstate() == theirs.getstate()

    def test_no_sampler_calls_randint(self, monkeypatch, sir, lv):
        def refused(self, a, b):
            raise AssertionError("a sampler called randint")

        monkeypatch.setattr(random.Random, "randint", refused)
        for sys in (sir, lv):
            build_report(sys, seed=3)
        names = {"x": X, "y": Y}
        # the sampled test, to a zero and to a nonzero verdict
        assert is_zero(parse_expr("ln(x*y) - ln(x) - ln(y)", names)).kind == PROBABLY_ZERO
        assert is_zero(parse_expr("exp(x) - x", names)).kind == PROBABLY_NONZERO
        # the exact test's witness draw
        assert is_zero(parse_expr("x - y", names)).witness
