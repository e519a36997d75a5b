"""Multivariate polynomials over exact rationals and canonical rational forms.

This is the semantic backbone of the package: two expressions are equal as
rational functions iff their :class:`RationalForm` numerators and denominators
match, and an identity holds iff :func:`is_zero` says so.  The polynomial
representation is a sparse exponent-vector map with Fraction coefficients and
a fixed graded-lexicographic monomial order, so printing and reduction are
deterministic.

GCD reduction uses the classic primitive polynomial-remainder-sequence
recursion; degrees here are tiny, so no subresultant refinements are needed.

An expression with ln/exp has no rational form; :func:`is_zero` samples it
over floats instead.  The expression and its top-level terms are compiled
once per test (:func:`odeobs.expr.compile_exact`), and one float run per
draw gives both the value and the scale it is compared against.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .expr import (
    Add,
    Const,
    Div,
    DivisionByZeroError,
    Exp,
    Expr,
    ExprError,
    Ln,
    Mul,
    Neg,
    PowInt,
    Sym,
    Symbol,
    TranscendentalNodeError,
    compile_exact,
    free_symbols,
    has_ln_exp,
)
from .expr import DomainError as _DomainError

Monomial = tuple  # one exponent per variable


def _grlex_key(mono: Monomial) -> tuple:
    return (sum(mono), mono)


class Poly:
    """Sparse multivariate polynomial over a fixed variable tuple."""

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: tuple, coeffs: Mapping[Monomial, Fraction]):
        self.vars = vars
        self.coeffs = {m: c for m, c in coeffs.items() if c != 0}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple) -> "Poly":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: tuple, value: Fraction) -> "Poly":
        return cls(vars, {(0,) * len(vars): Fraction(value)})

    @classmethod
    def variable(cls, vars: tuple, symbol: Symbol) -> "Poly":
        mono = [0] * len(vars)
        mono[vars.index(symbol)] = 1
        return cls(vars, {tuple(mono): Fraction(1)})

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.coeffs)

    def constant_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        [(m, c)] = self.coeffs.items()
        if sum(m) != 0:
            raise ValueError("not a constant polynomial")
        return c

    def degree_in(self, index: int) -> int:
        if self.is_zero:
            return -1
        return max(m[index] for m in self.coeffs)

    def leading(self) -> tuple:
        """(monomial, coefficient) that is graded-lex largest."""
        mono = max(self.coeffs, key=_grlex_key)
        return mono, self.coeffs[mono]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.vars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) - c
        return Poly(self.vars, out)

    def __neg__(self) -> "Poly":
        return Poly(self.vars, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.vars, out)

    def scale(self, value: Fraction) -> "Poly":
        if value == 0:
            return Poly.zero(self.vars)
        return Poly(self.vars, {m: c * value for m, c in self.coeffs.items()})

    def power(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power on a polynomial")
        result = Poly.constant(self.vars, Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, point: Mapping[Symbol, Fraction]) -> Fraction:
        total = Fraction(0)
        values = [Fraction(point[v]) for v in self.vars]
        for mono, coeff in self.coeffs.items():
            term = coeff
            for value, e in zip(values, mono):
                if e:
                    term *= value**e
            total += term
        return total

    # -- equality and printing ----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.vars, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        return f"Poly({self.to_str()})"

    def to_str(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for mono in sorted(self.coeffs, key=_grlex_key, reverse=True):
            coeff = self.coeffs[mono]
            factors = [
                v.name if e == 1 else f"{v.name}^{e}"
                for v, e in zip(self.vars, mono)
                if e
            ]
            if not factors:
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(abs(coeff))] + factors)
            if not parts:
                parts.append(("-" if coeff < 0 else "") + body)
            else:
                parts.append((" - " if coeff < 0 else " + ") + body)
        return "".join(parts)


# ---------------------------------------------------------------------------
# gcd machinery


def _divexact(a: Poly, b: Poly) -> Poly:
    """Exact division a / b; raises ValueError when b does not divide a."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    out = Poly.zero(a.vars)
    rem = a
    bm, bc = b.leading()
    while not rem.is_zero:
        rm, rc = rem.leading()
        qm = tuple(x - y for x, y in zip(rm, bm))
        if any(x < 0 for x in qm):
            raise ValueError("inexact polynomial division")
        q = Poly(a.vars, {qm: rc / bc})
        out = out + q
        rem = rem - q * b
    return out


def _univar_coeffs(p: Poly, index: int) -> dict:
    """View p as univariate in vars[index]: degree -> coefficient Poly."""
    out: dict = {}
    for mono, coeff in p.coeffs.items():
        d = mono[index]
        rest = mono[:index] + (0,) + mono[index + 1 :]
        bucket = out.setdefault(d, {})
        bucket[rest] = bucket.get(rest, Fraction(0)) + coeff
    return {d: Poly(p.vars, bucket) for d, bucket in out.items()}


def _monic(p: Poly) -> Poly:
    if p.is_zero:
        return p
    _, lead = p.leading()
    return p.scale(1 / lead)


def _content_in(p: Poly, index: int) -> Poly:
    coeffs = _univar_coeffs(p, index)
    content = Poly.zero(p.vars)
    for d in sorted(coeffs):
        content = poly_gcd(content, coeffs[d])
        if content.is_constant and not content.is_zero:
            break
    return content


def _primitive_in(p: Poly, index: int) -> Poly:
    if p.is_zero:
        return p
    content = _content_in(p, index)
    if content.is_constant:
        return p.scale(1 / content.constant_value())
    return _divexact(p, content)


def _pseudo_rem(u: Poly, v: Poly, index: int) -> Poly:
    """Pseudo-remainder of u by v in the chosen variable (up to content)."""
    dv = v.degree_in(index)
    lv = _univar_coeffs(v, index)[dv]
    rem = u
    while not rem.is_zero and rem.degree_in(index) >= dv:
        dr = rem.degree_in(index)
        lr = _univar_coeffs(rem, index)[dr]
        shift = Poly(
            u.vars,
            {
                tuple(
                    (dr - dv if i == index else 0) for i in range(len(u.vars))
                ): Fraction(1)
            },
        )
        rem = rem * lv - v * lr * shift
    return rem


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD over Q[vars], normalized so the graded-lex leading coefficient is 1."""
    if a.is_zero:
        return _monic(b)
    if b.is_zero:
        return _monic(a)
    if a.is_constant or b.is_constant:
        return Poly.constant(a.vars, Fraction(1))
    index = next(
        i
        for i in range(len(a.vars))
        if a.degree_in(i) > 0 or b.degree_in(i) > 0
    )
    if a.degree_in(index) == 0 or b.degree_in(index) == 0:
        # the main variable is missing from one side: recurse on its content
        without = a if a.degree_in(index) == 0 else b
        other = b if without is a else a
        return poly_gcd(without, _content_in(other, index))
    ca, cb = _content_in(a, index), _content_in(b, index)
    cont = poly_gcd(ca, cb)
    u = _divexact(a, ca) if not ca.is_constant else a.scale(1 / ca.constant_value())
    v = _divexact(b, cb) if not cb.is_constant else b.scale(1 / cb.constant_value())
    if u.degree_in(index) < v.degree_in(index):
        u, v = v, u
    while not v.is_zero:
        r = _pseudo_rem(u, v, index)
        u, v = v, (_primitive_in(r, index) if not r.is_zero else r)
    return _monic(cont * _primitive_in(u, index))


# ---------------------------------------------------------------------------
# rational forms


@dataclass(frozen=True)
class RationalForm:
    """Canonical num/den pair: gcd-reduced, denominator graded-lex monic."""

    num: Poly
    den: Poly

    def eval(self, point: Mapping[Symbol, Fraction]) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("pole of rational form")
        return self.num.eval(point) / d

    def __str__(self) -> str:
        return f"({self.num.to_str()}) / ({self.den.to_str()})"


def _default_order(e: Expr) -> tuple:
    return tuple(sorted(free_symbols(e), key=lambda s: s.sort_key))


def _times(a: Poly, b: Poly, one: Poly) -> Poly:
    """``a * b``, skipping the product when either side is ``one`` itself."""
    if b is one:
        return a
    if a is one:
        return b
    return a * b


def _to_fraction_pair(
    e: Expr, vars: tuple, one: Poly, memo: Optional[dict] = None
) -> tuple:
    """Numerator and denominator Poly of ``e``.

    Every constant-1 denominator is the object ``one``, so a polynomial
    ``e`` (the usual case) is expanded without multiplying by it.  Each
    distinct subtree is expanded once per call: ``memo`` holds the pairs of
    the subtrees completed so far, so a pole raises where a walk of the
    tree, numerator before denominator, meets it first.
    """
    if memo is None:
        memo = {}
    pair = memo.get(e)
    if pair is not None:
        return pair
    if isinstance(e, Const):
        pair = Poly.constant(vars, e.value), one
    elif isinstance(e, Sym):
        pair = Poly.variable(vars, e.symbol), one
    elif isinstance(e, Neg):
        n, d = _to_fraction_pair(e.arg, vars, one, memo)
        pair = -n, d
    elif isinstance(e, Add):
        n, d = Poly.zero(vars), one
        for t in e.terms:
            tn, td = _to_fraction_pair(t, vars, one, memo)
            n = _times(n, td, one) + _times(tn, d, one)
            d = _times(d, td, one)
        pair = n, d
    elif isinstance(e, Mul):
        n, d = one, one
        for f in e.factors:
            fn, fd = _to_fraction_pair(f, vars, one, memo)
            n = _times(n, fn, one)
            d = _times(d, fd, one)
        pair = n, d
    elif isinstance(e, Div):
        nn, nd = _to_fraction_pair(e.num, vars, one, memo)
        dn, dd = _to_fraction_pair(e.den, vars, one, memo)
        if dn.is_zero:
            raise DivisionByZeroError(e)
        pair = _times(nn, dd, one), _times(nd, dn, one)
    elif isinstance(e, PowInt):
        bn, bd = _to_fraction_pair(e.base, vars, one, memo)
        k = e.exponent
        if k >= 0:
            pair = bn.power(k), bd if bd is one else bd.power(k)
        elif bn.is_zero:
            raise DivisionByZeroError(e)
        else:
            pair = bd.power(-k), bn.power(-k)
    elif isinstance(e, (Ln, Exp)):
        raise TranscendentalNodeError(e)
    else:
        raise TypeError(f"unhandled node {e!r}")
    memo[e] = pair
    return pair


def normalize_rational(e: Expr, var_order: Optional[Sequence[Symbol]] = None) -> RationalForm:
    """Canonical gcd-reduced numerator/denominator pair for a rational Expr.

    The variable order defaults to (states, then parameters, each by name);
    model-level callers pass the declared order for stable printing.
    """
    vars = tuple(var_order) if var_order is not None else _default_order(e)
    num, den = _to_fraction_pair(e, vars, Poly.constant(vars, Fraction(1)))
    if den.is_zero:
        raise DivisionByZeroError(e)
    if num.is_zero:
        return RationalForm(Poly.zero(vars), Poly.constant(vars, Fraction(1)))
    g = poly_gcd(num, den)
    if not (g.is_constant and g.constant_value() == 1):
        num = _divexact(num, g)
        den = _divexact(den, g)
    _, lead = den.leading()
    if lead != 1:
        num = num.scale(1 / lead)
        den = den.scale(1 / lead)
    return RationalForm(num, den)


# ---------------------------------------------------------------------------
# zero testing


ZERO_EXACT = "zero"
NONZERO_EXACT = "nonzero"
PROBABLY_ZERO = "probably_zero"
PROBABLY_NONZERO = "probably_nonzero"

# Sampling window for randomized identity testing.  With 32 trials over
# integer points in [-1e6, 1e6] the miss probability for the degrees seen
# here (<= 32) is negligible.
SAMPLE_BOUND = 10**6
DEFAULT_TRIALS = 32
FLOAT_ZERO_RTOL = 1e-9


class ZeroTestUndecidedError(ExprError):
    """No sample point of a sampled zero test was in the domain of ``args[0]``."""

    def __str__(self) -> str:  # printed only when asked: a printed DAG can be long
        e, draws = self.args
        return f"zero test: none of {draws} sample points is in the domain of {e}"


@dataclass(frozen=True)
class ZeroTestResult:
    """Outcome of an identity-with-zero test.

    ``kind`` is one of ``zero`` / ``nonzero`` (exact verdicts via the
    canonical rational form) or ``probably_zero`` / ``probably_nonzero``
    (randomized float sampling, used when ln/exp prevent normalization).
    """

    kind: str
    trials: Optional[int] = None
    witness: Optional[dict] = None

    @property
    def is_zero_like(self) -> bool:
        return self.kind in (ZERO_EXACT, PROBABLY_ZERO)

    @property
    def exact(self) -> bool:
        return self.kind in (ZERO_EXACT, NONZERO_EXACT)


def _sample_point(rng: random.Random, symbols: Sequence[Symbol]) -> dict:
    return {s: Fraction(rng.randint(-SAMPLE_BOUND, SAMPLE_BOUND)) for s in symbols}


def is_zero(e: Expr, seed: int = 0, trials: int = DEFAULT_TRIALS) -> ZeroTestResult:
    """Decide whether ``e`` is identically zero.

    Rational expressions get an exact verdict through the canonical form,
    with a witness point attached to nonzero results when one is found.
    Expressions containing ln/exp are sampled at random points and compared
    against a scale built from the magnitudes of their top-level terms;
    :class:`ZeroTestUndecidedError` says that no sample point was in their
    domain.  Which of the two tests runs is decided before any expansion,
    so a rational pole in an expression with ln/exp is met by the sampler.
    """
    symbols = tuple(sorted(free_symbols(e), key=lambda s: s.sort_key))
    rng = random.Random(seed)
    if has_ln_exp(e):
        return _sampled_zero_test(e, symbols, rng, trials)
    rf = normalize_rational(e)
    if rf.num.is_zero:
        return ZeroTestResult(ZERO_EXACT)
    if rf.num.is_constant or not symbols:
        return ZeroTestResult(NONZERO_EXACT, witness={})
    for _ in range(4 * trials):
        point = _sample_point(rng, symbols)
        if rf.num.eval(point) != 0:
            return ZeroTestResult(NONZERO_EXACT, witness=point)
    # astronomically unlikely: every sample hit a root of a nonzero polynomial
    return ZeroTestResult(NONZERO_EXACT, witness=None)


def _sampled_zero_test(
    e: Expr, symbols: tuple, rng: random.Random, trials: int
) -> ZeroTestResult:
    # one run gives the value and the top-level terms that make its scale
    terms = e.terms if isinstance(e, Add) else (e,)
    program = compile_exact(((e, *terms),))
    done = 0
    attempts = 0
    bound = SAMPLE_BOUND
    while done < trials and attempts < 100 * max(trials, 1):
        attempts += 1
        point = {s: Fraction(rng.randint(-bound, bound)) for s in symbols}
        try:
            value, *term_values = program.run_float(point)[0]
            scale = 1.0 + max(abs(t) for t in term_values)
            if not (math.isfinite(value) and math.isfinite(scale)):
                raise OverflowError
        except (_DomainError, DivisionByZeroError, OverflowError, ValueError):
            # out of domain or overflowed (exp grows fast): shrink the window
            bound = max(4, bound // 2)
            continue
        done += 1
        if abs(value) > FLOAT_ZERO_RTOL * scale:
            return ZeroTestResult(PROBABLY_NONZERO, trials=done, witness=point)
    if not done:
        raise ZeroTestUndecidedError(e, attempts)
    return ZeroTestResult(PROBABLY_ZERO, trials=done)
