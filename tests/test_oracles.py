"""odeobs checked against sympy, an oracle that shares no code with it.

``linalg.rank`` is compared with ``sympy.Matrix.rank`` on generated integer
and rational matrices, rank-deficient ones included, and ``ExactProgram.run``
with sympy's exact evaluation of the same expressions at rational points,
including whether the point is a pole.  ``poly.normalize_rational`` is
compared with ``sympy.cancel`` on generated rational expressions, and the
exact verdict of ``poly.is_zero`` with whether ``sympy.cancel`` gives 0,
constructed zeros included.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from odeobs import linalg  # noqa: E402
from odeobs.expr import (  # noqa: E402
    Add,
    Const,
    Div,
    DivisionByZeroError,
    Mul,
    Neg,
    PowInt,
    Sym,
    add,
    children,
    compile_exact,
    div,
    mul,
    neg,
    pow_int,
)
from odeobs.poly import NONZERO_EXACT, ZERO_EXACT, is_zero, normalize_rational  # noqa: E402

from conftest import GEN_SYMBOLS, random_expr  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

rationals = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


def product(left, right):
    """``left`` times ``right``: its rank is at most their inner width."""
    inner = len(right)
    return [
        [sum((Fraction(row[k]) * right[k][j] for k in range(inner)), Fraction(0))
         for j in range(len(right[0]))]
        for row in left
    ]


@st.composite
def matrices(draw):
    """A rows x cols matrix, drawn entry by entry or as a product of two
    thinner factors, which is rank-deficient."""
    rows, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    if min(rows, cols) == 1 or draw(st.booleans()):
        return [[draw(rationals) for _ in range(cols)] for _ in range(rows)]
    inner = draw(st.integers(1, min(rows, cols) - 1))
    left = [[draw(rationals) for _ in range(inner)] for _ in range(rows)]
    right = [[draw(rationals) for _ in range(cols)] for _ in range(inner)]
    return product(left, right)


def sympy_rank(m):
    return sympy.Matrix([[sympy.Rational(Fraction(v)) for v in row] for row in m]).rank()


@SETTINGS
@given(matrices())
def test_rank_matches_sympy(m):
    assert linalg.rank([[Fraction(v) for v in row] for row in m]) == sympy_rank(m)


SYMPY_SYMBOLS = {s: sympy.Symbol(s.name) for s in GEN_SYMBOLS}


def to_sympy(e):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return SYMPY_SYMBOLS[e.symbol]
    if isinstance(e, Add):
        return sympy.Add(*[to_sympy(t) for t in e.terms])
    if isinstance(e, Mul):
        return sympy.Mul(*[to_sympy(f) for f in e.factors])
    if isinstance(e, Neg):
        return -to_sympy(e.arg)
    if isinstance(e, Div):
        return to_sympy(e.num) / to_sympy(e.den)
    if isinstance(e, PowInt):
        return to_sympy(e.base) ** e.exponent
    raise TypeError(f"unhandled node {e!r}")


def denominators(e):
    """Every subtree that the tree divides by: quotient denominators and the
    bases of negative powers."""
    stack, found = [e], []
    while stack:
        node = stack.pop()
        if isinstance(node, Div):
            found.append(node.den)
        elif isinstance(node, PowInt) and node.exponent < 0:
            found.append(node.base)
        stack.extend(children(node))
    return found


@SETTINGS
@given(
    st.integers(0, 2**32),
    st.fixed_dictionaries(
        {s: st.fractions(min_value=-5, max_value=5, max_denominator=3) for s in GEN_SYMBOLS}
    ),
)
def test_exact_program_matches_sympy(seed, point):
    # random denominators are a symbol plus 1..5, so integral points meet poles
    rng = random.Random(seed)
    rows = [[random_expr(rng, depth=3) for _ in range(2)] for _ in range(2)]
    sub = {SYMPY_SYMBOLS[s]: sympy.Rational(v.numerator, v.denominator) for s, v in point.items()}
    # a tree divides by zero at the point iff one of its denominators is zero
    # there (a denominator that is itself a pole hides a zero one inside it)
    pole = any(
        to_sympy(d).xreplace(sub) == 0
        for row in rows for e in row for d in denominators(e)
    )
    program = compile_exact(rows)
    if pole:
        with pytest.raises(DivisionByZeroError):
            program.run(point)
        return
    expected = [[to_sympy(e).xreplace(sub) for e in row] for row in rows]
    got = program.run(point)
    assert [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in got] == expected


def poly_to_sympy(p):
    return sympy.Add(
        *[
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*[SYMPY_SYMBOLS[v] ** k for v, k in zip(p.vars, mono)])
            for mono, c in p.coeffs.items()
        ]
    )


def rational_expr(rng):
    """A rational expression whose denominators are random polynomials (not
    monic, in general), with a common factor of numerator and denominator
    now and then."""
    p, q, f = (random_expr(rng, depth=2) for _ in range(3))
    pick = rng.randrange(4)
    if pick == 0:
        return random_expr(rng, depth=3)
    if pick == 1:
        return div(p, q)
    if pick == 2:
        return div(mul(p, f), mul(q, f))
    return add(div(p, q), pow_int(f, -rng.randint(1, 2)))


def defined(e):
    """Whether no denominator of ``e`` is zero as a rational function."""
    return all(sympy.cancel(to_sympy(d)) != 0 for d in denominators(e))


@SETTINGS
@given(st.integers(0, 2**32))
def test_normalize_rational_matches_sympy_cancel(seed):
    e = rational_expr(random.Random(seed))
    assume(defined(e))
    form = normalize_rational(e)
    num, den = poly_to_sympy(form.num), poly_to_sympy(form.den)
    p, q = sympy.fraction(sympy.cancel(to_sympy(e)))
    assert sympy.expand(num * q - den * p) == 0  # the same rational function
    gens = [SYMPY_SYMBOLS[v] for v in form.den.vars]
    if not gens:
        assert den == 1
        return
    assert sympy.Poly(sympy.gcd(num, den), *gens).is_ground
    # monic in the graded-lex order over odeobs' variable order
    assert sympy.Poly(den, *gens).LC(order="grlex") == 1


def constructed_zero(rng):
    """An expression that is zero as a rational function, but not as a tree."""
    p, q, r = (random_expr(rng, depth=2) for _ in range(3))
    pick = rng.randrange(3)
    if pick == 0:  # p*q/q - p
        return add(div(mul(p, q), q), neg(p))
    if pick == 1:  # p/q - p*r/(q*r)
        return add(div(p, q), neg(div(mul(p, r), mul(q, r))))
    # (p + q)^2 - p^2 - 2*p*q - q^2
    return add(pow_int(add(p, q), 2), neg(pow_int(p, 2)), mul(-2, p, q), neg(pow_int(q, 2)))


@SETTINGS
@given(st.integers(0, 2**32), st.booleans())
def test_exact_is_zero_matches_sympy_cancel(seed, zero):
    rng = random.Random(seed)
    e = constructed_zero(rng) if zero else rational_expr(rng)
    assume(defined(e))
    expected = ZERO_EXACT if sympy.cancel(to_sympy(e)) == 0 else NONZERO_EXACT
    assert is_zero(e, seed=seed).kind == expected
    if zero:
        assert expected == ZERO_EXACT
