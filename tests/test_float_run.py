"""The float run of a compiled program against the tree walk it replaced.

``reference_eval`` is the isinstance tree walker that ``expr.eval_float``
used to be, kept here as the reference, with a quotient's numerator run
before its denominator as in every evaluator's post-order.  On random
ln/exp matrices that share subtrees, at points that hit poles, ln of
non-positive values and overflow, ``ExactProgram.run_float`` gives the
walk's values bit for bit, or raises the walk's first exception: same
class, same message, and for a node error the same node object.  Shared
subtrees run once, so a DAG with 2^60 paths is zero-tested and ranked in
well under a second.
"""

import math
import random
import struct
import time
from collections import Counter
from fractions import Fraction

import pytest

from odeobs import embedding, poly
from odeobs.expr import (
    ONE,
    Add,
    Const,
    Div,
    DivisionByZeroError,
    DomainError,
    Exp,
    Ln,
    Mul,
    Neg,
    PowInt,
    Sym,
    UnknownSymbolError,
    add,
    compile_exact,
    div,
    eval_float,
    exp,
    ln,
    mul,
    neg,
    pow_int,
    sym,
)

from conftest import GEN_SYMBOLS, X, Y


def reference_eval(e, point):
    """IEEE double evaluation by a tree walk; ln requires a positive argument."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(point[e.symbol])
        except KeyError:
            raise UnknownSymbolError(e.symbol.name) from None
    if isinstance(e, Add):
        return math.fsum(reference_eval(t, point) for t in e.terms)
    if isinstance(e, Mul):
        total = 1.0
        for f in e.factors:
            total *= reference_eval(f, point)
        return total
    if isinstance(e, Neg):
        return -reference_eval(e.arg, point)
    if isinstance(e, Div):
        n = reference_eval(e.num, point)
        d = reference_eval(e.den, point)
        if d == 0.0:
            raise DivisionByZeroError(e)
        return n / d
    if isinstance(e, PowInt):
        b = reference_eval(e.base, point)
        if b == 0.0 and e.exponent < 0:
            raise DivisionByZeroError(e)
        return b**e.exponent
    if isinstance(e, Ln):
        a = reference_eval(e.arg, point)
        if a <= 0.0:
            raise DomainError(f"ln of non-positive value {a}")
        return math.log(a)
    if isinstance(e, Exp):
        return math.exp(reference_eval(e.arg, point))
    raise TypeError(f"unhandled node {e!r}")


def shared_matrix(rng, n_rows=2, n_cols=3):
    """A matrix over a pool of nodes, each built from earlier ones, so that
    entries and their subtrees share node objects.  Small constants and the
    symbols give poles and ln of non-positive values; +-10^308 and exp give
    overflow, in constants, powers, exp and fsum."""
    pool = [sym(s) for s in GEN_SYMBOLS]
    pool += [Const(Fraction(rng.randint(-3, 3), rng.randint(1, 2))) for _ in range(2)]
    pool.append(Const(Fraction(rng.choice((1, -1)) * 10**308)))
    for _ in range(rng.randint(4, 12)):
        r = rng.random()
        if r < 0.2:
            node = add(*rng.choices(pool, k=rng.randint(2, 3)))
        elif r < 0.4:
            node = mul(*rng.choices(pool, k=rng.randint(2, 3)))
        elif r < 0.48:
            node = neg(rng.choice(pool))
        elif r < 0.62:
            node = div(rng.choice(pool), rng.choice(pool))
        elif r < 0.72:
            node = pow_int(rng.choice(pool), rng.choice((-2, -1, 2, 3)))
        elif r < 0.86:
            node = ln(rng.choice(pool))
        else:
            node = exp(rng.choice(pool))
        pool.append(node)
    return [[rng.choice(pool[-6:]) for _ in range(n_cols)] for _ in range(n_rows)]


def random_float_point(rng):
    def coordinate():
        if rng.random() < 0.2:  # exp of these overflows or nearly does
            return float(rng.choice((-720, -300, 300, 709, 720)))
        return float(rng.randint(-3, 3))

    return {s: coordinate() for s in GEN_SYMBOLS}


def outcome(evaluate):
    """``("value", rows)``, or ``("raise", exception)``; classes are compared."""
    try:
        return "value", evaluate()
    except Exception as exc:  # noqa: BLE001
        return "raise", exc


def bits(rows):
    return [[struct.pack("<d", v) for v in row] for row in rows]


def kind(exc):
    if isinstance(exc, OverflowError) and "fsum" in str(exc):
        return "fsum overflow"
    return type(exc).__name__


def test_float_run_matches_the_tree_walk():
    rng = random.Random(2024)
    seen = Counter()
    for _ in range(1000):
        rows = shared_matrix(rng)
        program = compile_exact(rows)
        for _ in range(5):
            point = random_float_point(rng)
            expected = outcome(lambda: [[reference_eval(e, point) for e in row] for row in rows])
            got = outcome(lambda: program.run_float(point))
            assert got[0] == expected[0], (expected, got)
            if expected[0] == "value":
                seen["value"] += 1
                assert bits(got[1]) == bits(expected[1])
                continue
            want, have = expected[1], got[1]
            seen[kind(want)] += 1
            assert type(have) is type(want)
            assert str(have) == str(want)
            assert getattr(have, "subexpr", None) is getattr(want, "subexpr", None)
    assert sum(seen.values()) == 5000
    for case in ("value", "DomainError", "DivisionByZeroError", "OverflowError", "fsum overflow"):
        assert seen[case] > 0, seen


def test_an_overflowing_partial_sum_gives_way_to_a_later_pole():
    # fsum raises as soon as a partial sum overflows, so the walk never
    # reaches 1/y; the float run has evaluated every term before fsum runs
    pole = div(ONE, sym(Y))
    e = add(exp(sym(X)), exp(sym(X)), pole)
    point = {X: 709.5, Y: 0.0}
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        reference_eval(e, point)
    with pytest.raises(DivisionByZeroError) as err:
        eval_float(e, point)
    assert err.value.subexpr is pole
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        eval_float(e, {X: 709.5, Y: 1.0})


def shared_ln_dag(depth):
    """ln(e*e + 1) nested ``depth`` times over x: 2^depth paths from the root
    to x, and 3 * depth + 2 distinct nodes."""
    e = sym(X)
    for _ in range(depth):
        e = ln(add(mul(e, e), ONE))
    return e


def test_shared_ln_dag_is_zero_tested_in_its_distinct_nodes():
    # free_symbols, the lowering and each float run visit each node once
    e = shared_ln_dag(60)
    start = time.perf_counter()
    result = poly.is_zero(add(e, neg(e)))
    assert time.perf_counter() - start < 1.0
    assert result.kind == poly.PROBABLY_ZERO


def test_shared_ln_dag_is_ranked_in_its_distinct_nodes():
    e = shared_ln_dag(60)
    start = time.perf_counter()
    verdict = embedding.generic_rank_of([[e, sym(Y)], [sym(Y), sym(X)]], seed=3)
    assert time.perf_counter() - start < 1.0
    assert (verdict.generic_rank, verdict.confidence) == (2, embedding.PROBABILISTIC_CONFIDENCE)


def test_sampled_zero_test_compiles_once(monkeypatch):
    calls = []

    def counting(rows):
        calls.append(rows)
        return compile_exact(rows)

    monkeypatch.setattr(poly, "compile_exact", counting)
    e = add(ln(add(mul(sym(X), sym(X)), ONE)), exp(sym(Y)))
    result = poly.is_zero(add(e, neg(e)), trials=40)
    assert (result.kind, result.trials) == (poly.PROBABLY_ZERO, 40)
    assert len(calls) == 1


def test_an_entry_that_overflows_to_inf_halves_the_window(monkeypatch):
    # a float product overflows to inf without raising: exp(16)^60 is past
    # 1e308 while exp(16) is not, so only the finiteness check refuses it
    e = mul(*[exp(sym(X)) for _ in range(60)])
    program = compile_exact([[e]])
    assert program.run_float({X: 16}) == [[math.inf]]
    assert embedding._float_rank(program, {X: 16}) is None
    ranked = []
    original = embedding._float_rank

    def recording(program, point):
        ranked.append(original(program, point))
        return ranked[-1]

    monkeypatch.setattr(embedding, "_float_rank", recording)
    verdict = embedding.generic_rank_of([[e]], seed=0)
    assert None in ranked
    assert all(60 * point[X] <= 709 for point in verdict.sample_points)
    assert (verdict.generic_rank, verdict.trials) == (1, embedding.DEFAULT_TRIALS)
