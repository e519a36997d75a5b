"""Multivariate polynomials over exact rationals, and exact zero tests.

This is the semantic backbone of the package: an identity holds iff
:func:`is_zero` says so.  A rational expression is written as one quotient
N/D of polynomials (:class:`RationalForm`), never reduced: ``e`` is
identically zero iff N is the zero polynomial, and ``e`` depends on a
variable x iff N*dD/dx - D*dN/dx is not (:func:`rational_symbols`).
Coefficients follow the number convention of every exact layer: an int when
integral, a Fraction only otherwise.

Each test compiles its expression once (:func:`odeobs.expr.compile_exact`).
N/D is one pass over that program, which then runs at the witness samples.
The dependency test of a whole system (:func:`rational_symbol_sets`, which
fills the inference graph's memo) compiles its expressions together, and one
pass expands a subtree they share once.
Inside the pass a polynomial is a dict from a packed monomial to its
nonzero coefficient, as in Monagan & Pearce (CASC 2007): the exponent of
the i-th variable sits in bits [i*w, (i+1)*w) of one int, so a product of
monomials is one int addition.  The field width w comes from a bound on the
total degree, taken over the same instructions before the pass, so no field
can carry into its neighbour.  Only this module knows that format: the
zero and dependency tests read the packed N and D directly, and
:func:`normalize_rational` returns each as a :class:`Poly`, the sparse
exponent-tuple map that is the output type.  The tests hold the
straightforward arithmetic on :class:`Poly` that the pass is checked
against.

An expression with ln/exp has no rational form and is sampled over floats;
its top-level terms are compiled with it, and one float run per draw gives
both the value and the scale it is compared against.  Every sample point
of the package, here and in the rank test, comes from :func:`draw_point`:
``getrandbits`` calls exactly as ``random.Random.randint`` makes them, so
the same points and generator states as ``randint`` per coordinate.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Mapping, MutableMapping, NamedTuple, Optional, Sequence, Union

from .expr import (
    Add,
    Const,
    Div,
    DivisionByZeroError,
    ExactProgram,
    Expr,
    ExprError,
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


class Poly:
    """Sparse multivariate polynomial over a fixed variable tuple, a map
    from exponent tuples to coefficients.

    Zero coefficients are dropped, and each other one is an int when it is
    integral and a Fraction otherwise.  :func:`normalize_rational` returns
    N and D as Poly objects.  The straightforward arithmetic on this form
    that the packed pass is tested against lives with the tests.
    """

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars: tuple, coeffs: Mapping[Monomial, Union[int, Fraction]]):
        self.vars = vars
        self.coeffs = {
            m: c if type(c) is int or c.denominator != 1 else c.numerator
            for m, c in coeffs.items()
            if c
        }

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.vars == other.vars
            and self.coeffs == other.coeffs
        )


# ---------------------------------------------------------------------------
# rational forms


class RationalForm(NamedTuple):
    """A quotient num/den of polynomials.  Wherever its expression is
    defined, den is nonzero and the quotient equals the expression.  It is
    not reduced: num and den may share a factor."""

    num: Poly
    den: Poly

    def eval(self, point: Mapping[Symbol, Fraction]) -> Fraction:
        d = self.den.eval(point)
        if d == 0:
            raise ZeroDivisionError("pole of rational form")
        return self.num.eval(point) / d


def _default_order(e: Expr) -> tuple:
    return tuple(sorted(free_symbols(e), key=lambda s: s.sort_key))


# -- packed polynomials -----------------------------------------------------
#
# Each operation below keeps the monomial order that the same operation of
# the tests' reference arithmetic on exponent tuples gives, so a Poly built
# from its result lists its terms in the reference's order.


def _field_width(instrs: tuple) -> int:
    """Bits per exponent for the pass over ``instrs``: enough for the total
    degree of any N or D the pass builds, and of N times D (which the
    dependency test of :func:`rational_symbol_sets` forms)."""
    ns: list = []  # an upper bound on deg N, per instruction
    ds: list = []  # and on deg D
    top = 0
    for op, args, payload in instrs:
        if op is Sym:
            n, d = 1, 0
        elif op is Mul:
            n = d = 0
            for a in args:
                n += ns[a]
                d += ds[a]
        elif op is Add:
            n = d = 0
            for a in args:
                if ns[a] > n:
                    n = ns[a]
                d += ds[a]
            n += d
        elif op is Neg:
            n, d = ns[args[0]], ds[args[0]]
        elif op is Div:
            num, den = args
            n, d = ns[num] + ds[den], ds[num] + ns[den]
        elif op is PowInt:
            k = payload.exponent
            n, d = ns[args[0]], ds[args[0]]
            n, d = (n * k, d * k) if k >= 0 else (d * -k, n * -k)
        else:  # Const, or Ln/Exp, where the pass stops
            n = d = 0
        ns.append(n)
        ds.append(d)
        if n + d > top:
            top = n + d
    return max(1, top.bit_length())


def _product(a: dict, b: dict) -> dict:
    """``a * b``: coefficients are summed over all term pairs before the
    zero ones are dropped, so a monomial keeps the place where it first
    appeared."""
    if len(a) == 1:  # distinct monomials, nothing cancels
        ((m1, c1),) = a.items()
        return {m1 + m2: c1 * c2 for m2, c2 in b.items()}
    if len(b) == 1:
        ((m2, c2),) = b.items()
        return {m1 + m2: c1 * c2 for m1, c1 in a.items()}
    out: dict = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _times(a: dict, b: dict, one: dict) -> dict:
    """``a * b``, skipping the product when either side is ``one`` itself."""
    if b is one:
        return a
    if a is one:
        return b
    return _product(a, b)


def _sum(terms) -> dict:
    """The sum of ``terms``, added into one dict.

    A monomial whose coefficient cancels is dropped at once, so a later
    term that brings it back puts it last, as adding the terms one by one
    would.
    """
    out: dict = {}
    get = out.get
    for term in terms:
        for m, c in term.items():
            c += get(m, 0)
            if c:
                out[m] = c
            else:
                del out[m]
    return out


def _power(p: dict, k: int) -> dict:
    """``p**k`` for ``k >= 0``, by square-and-multiply over the bits of
    ``k`` from the lowest, with no square after the top bit, which the
    result would never use."""
    result = None  # the constant 1, until a factor comes
    while k:
        if k & 1:
            result = p if result is None else _product(result, p)
        k >>= 1
        if k:
            p = _product(p, p)
    return {0: 1} if result is None else result


def _derivative(p: dict, shift: int, mask: int) -> dict:
    """The partial derivative of ``p`` in the variable at bit ``shift``."""
    unit = 1 << shift
    out = {}
    for m, c in p.items():
        e = (m >> shift) & mask
        if e:
            out[m - unit] = c * e
    return out


def _rational_pass(instrs: tuple, vars: tuple, width: int, pairs: list) -> None:
    """Append N/D of each instruction of ``instrs`` to ``pairs``: packed
    polynomials over ``vars`` with ``width`` bits per exponent.

    One (N, D) pair per instruction.  Every constant-1 denominator is the
    object ``one``, so a polynomial entry (the usual case) is expanded
    without multiplying by it, and a sum of such terms is added into one
    dict.  Raises the first error of the post-order, with ``pairs`` then
    holding those of the instructions before it.
    """
    unit = {v: 1 << i * width for i, v in enumerate(vars)}  # each variable's monomial
    one = {0: 1}
    append = pairs.append
    for op, args, payload in instrs:
        if op is Mul:
            n, d = one, one
            for a in args:
                fn, fd = pairs[a]
                n = _times(n, fn, one)
                d = _times(d, fd, one)
            pair = n, d
        elif op is Add:
            terms = [pairs[a] for a in args]
            if all(td is one for _, td in terms):
                pair = _sum([tn for tn, _ in terms]), one
            else:
                n, d = {}, one
                for tn, td in terms:
                    n = _sum((_times(n, td, one), _times(tn, d, one)))
                    d = _times(d, td, one)
                pair = n, d
        elif op is Sym:
            pair = {unit[payload]: 1}, one
        elif op is Const:
            pair = ({0: payload} if payload else {}), one
        elif op is Neg:
            n, d = pairs[args[0]]
            pair = {m: -c for m, c in n.items()}, d
        elif op is Div:
            (nn, nd), (dn, dd) = pairs[args[0]], pairs[args[1]]
            if not dn:
                raise DivisionByZeroError(payload)
            pair = _times(nn, dd, one), _times(nd, dn, one)
        elif op is PowInt:
            bn, bd = pairs[args[0]]
            k = payload.exponent
            if k >= 0:
                pair = _power(bn, k), bd if bd is one else _power(bd, k)
            elif not bn:
                raise DivisionByZeroError(payload)
            else:
                pair = _power(bd, -k), _power(bn, -k)
        else:  # Ln or Exp
            raise TranscendentalNodeError(payload)
        append(pair)


def _rational_form(program: ExactProgram, vars: tuple) -> tuple:
    """N/D of the one entry of ``program``, as ``(N, D, width)``: packed
    polynomials over ``vars`` with ``width`` bits per exponent."""
    width = _field_width(program.instrs)
    pairs: list = []
    _rational_pass(program.instrs, vars, width, pairs)
    ((out,),) = program.outputs
    n, d = pairs[out]
    return n, d, width


def normalize_rational(e: Expr) -> RationalForm:
    """The rational Expr ``e`` over one common denominator, not reduced.

    A pass over :func:`odeobs.expr.compile_exact`'s post-order, which raises
    the first error of that order, as :meth:`ExactProgram.run` does:
    :class:`DivisionByZeroError` at a quotient by an identically zero
    polynomial (so the returned den is never the zero polynomial), and
    :class:`TranscendentalNodeError` at an ln/exp node, after its argument.
    The variables are ordered states, then parameters, each by name.
    """
    vars = _default_order(e)
    num, den, width = _rational_form(compile_exact(((e,),)), vars)
    return RationalForm(_unpacked(vars, num, width), _unpacked(vars, den, width))


def _unpacked(vars: tuple, p: dict, width: int) -> Poly:
    """The packed polynomial ``p`` over ``vars`` as a :class:`Poly`."""
    mask = (1 << width) - 1
    shifts = range(0, len(vars) * width, width)
    return Poly(vars, {tuple([m >> s & mask for s in shifts]): c for m, c in p.items()})


def rational_symbols(e: Expr) -> Optional[frozenset]:
    """The symbols that ``e`` depends on as a rational function, or None
    when ``e`` has ln/exp: read before expanding, as :func:`is_zero` does.

    The one-expression case of :func:`rational_symbol_sets`.
    """
    if has_ln_exp(e):
        return None
    into: dict = {}
    rational_symbol_sets((e,), into)
    return into[e]


def rational_symbol_sets(exprs: Sequence[Expr], into: MutableMapping) -> None:
    """Enter into ``into`` the symbols that each of the rational expressions
    ``exprs`` depends on, from one pass over them all.

    The expressions are lowered together, so a subtree they share is
    expanded once, and one variable order (that of all their symbols) and
    one field width (the largest any of them needs) serve every one: the
    answers are sets.  Each expression's frozenset is entered in order, up
    to the first whose expansion fails, which is not entered: the error of
    that expression on its own is then raised.  It is the first error of
    the shared post-order, whose first failing instruction belongs to the
    first failing expression, and that expression's own post-order runs
    the same instructions in the same order, less those that earlier
    expressions, which did not fail, lowered first.

    With an expression ``e`` = N/D unreduced, x is one of its symbols iff
    d(N/D)/dx is not zero, that is iff N*dD/dx and D*dN/dx are different
    polynomials.  When D does not mention x, that is iff N does.  Which
    variables N and D mention is read off the bitwise or of their
    monomials.
    """
    program = compile_exact((exprs,))
    vars = tuple(sorted(program.symbols, key=lambda s: s.sort_key))
    index = {v: i for i, v in enumerate(vars)}
    width = _field_width(program.instrs)
    pairs: list = []
    error = None
    try:
        _rational_pass(program.instrs, vars, width, pairs)
    except ExprError as failure:
        error = failure
    mask = (1 << width) - 1
    for e, out in zip(exprs, program.outputs[0]):
        if out >= len(pairs):  # the first failing expression
            raise error
        num, den = pairs[out]
        in_num = in_den = 0
        for m in num:
            in_num |= m
        for m in den:
            in_den |= m
        found = []
        for var in free_symbols(e):
            shift = index[var] * width
            if in_den >> shift & mask:
                dn, dd = _derivative(num, shift, mask), _derivative(den, shift, mask)
                if _product(num, dd) != _product(den, dn):
                    found.append(var)
            elif in_num >> shift & mask:
                found.append(var)
        into[e] = frozenset(found)


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


class ZeroTestResult(NamedTuple):
    """Outcome of an identity-with-zero test.

    ``kind`` is one of ``zero`` / ``nonzero`` (exact verdicts from the
    numerator of the rational form) or ``probably_zero`` /
    ``probably_nonzero`` (randomized float sampling, used when ln/exp leave
    no rational form).  A ``witness`` of a nonzero verdict is a point in the
    expression's domain where it is nonzero; ``{}`` means that it is nonzero
    wherever it is defined.
    """

    kind: str
    trials: Optional[int] = None
    witness: Optional[dict] = None

    @property
    def is_zero_like(self) -> bool:
        return self.kind in (ZERO_EXACT, PROBABLY_ZERO)


def draw_point(rng: random.Random, symbols: Sequence[Symbol], bound: int) -> dict:
    """One integer coordinate in [-bound, bound] per symbol, in order.

    The draws are CPython's ``rng.randint(-bound, bound)``, one call of
    ``getrandbits(k)`` at a time with k = (2*bound + 1).bit_length() and
    values of 2*bound + 1 and above drawn again: the same numbers, and the
    generator left in the same state, without randint's three Python calls
    per coordinate.  Every sampler of the package draws its points here.
    """
    width = 2 * bound + 1
    k = width.bit_length()
    getrandbits = rng.getrandbits
    point = {}
    for s in symbols:
        v = getrandbits(k)
        while v >= width:
            v = getrandbits(k)
        point[s] = v - bound
    return point


def is_zero(e: Expr, seed: int = 0, trials: int = DEFAULT_TRIALS) -> ZeroTestResult:
    """Decide whether ``e`` is identically zero.

    A rational expression N/D (:func:`normalize_rational`) is zero iff N is
    the zero polynomial.  A nonzero verdict carries the witness ``{}`` when
    N is a constant, or else the first sampled point where ``e`` runs
    without a pole to a nonzero value.  Where ``e`` is defined, D is nonzero
    and ``e`` = N/D, so that is the first point in the domain where N is
    nonzero.
    Expressions containing ln/exp are sampled at random points and compared
    against a scale built from the magnitudes of their top-level terms;
    :class:`ZeroTestUndecidedError` says that no sample point was in their
    domain.  Which of the two tests runs is decided before any expansion,
    so a rational pole in an expression with ln/exp is met by the sampler.
    """
    symbols = _default_order(e)
    rng = random.Random(seed)
    if has_ln_exp(e):
        return _sampled_zero_test(e, symbols, rng, trials)
    # one program gives N/D and runs at the witness samples
    program = compile_exact(((e,),))
    num = _rational_form(program, symbols)[0]
    if not num:
        return ZeroTestResult(ZERO_EXACT)
    if len(num) == 1 and 0 in num:
        return ZeroTestResult(NONZERO_EXACT, witness={})
    for _ in range(4 * trials):
        point = draw_point(rng, symbols, SAMPLE_BOUND)
        try:
            value = program.run(point)[0][0]
        except DivisionByZeroError:
            continue
        if value != 0:
            return ZeroTestResult(NONZERO_EXACT, witness=point)
    # astronomically unlikely: every sample hit a pole or a root of N
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
        point = draw_point(rng, symbols, bound)
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
