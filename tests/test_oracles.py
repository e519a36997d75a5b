"""odeobs checked against sympy, an oracle that shares no code with it.

``linalg.rank`` is compared with ``sympy.Matrix.rank`` on generated integer
and rational matrices, rank-deficient ones included (tall ones of 80-bit
integers among them, the shape of the twin-3 Jacobians), and ``ExactProgram.run``
with sympy's exact evaluation of the same expressions at rational points,
including whether the point is a pole.  On generated rational expressions,
some with planted common factors, ``poly.normalize_rational`` must give the
function that ``sympy.cancel`` gives, the inference graph's dependence test
the symbols of the cancelled form, and the exact verdict of ``poly.is_zero``
whether ``sympy.cancel`` gives 0 (constructed zeros included); a nonzero
verdict's witness must be a point where the expression has a nonzero value.
The fact that lets the rank test stop at order n-1, that the rank of an
output stacked with its derivatives grows no more past order n-1, is checked
on Lie derivatives that sympy builds from the model text alone, together
with the rank odeobs reports.  So is ``conserved.eliminate_states``: sympy
solves the level equations of each candidate and builds the transformed
right-hand sides, and the Lie derivatives of every state along them must be
those of the original system composed with the solution.  The verdicts of
the dimerization, whose rates, quantity and solutions carry the constants 2
and 1/2, are rebuilt from its model text: the quantity is conserved, each
state alone has full rank, and each state replaces the other as a sensor.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from odeobs import linalg  # noqa: E402
from odeobs.embedding import observability_verdict  # noqa: E402
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
    eval_exact,
    mul,
    neg,
    pow_int,
    to_str,
)
from odeobs.conserved import alternative_observables, eliminate_states  # noqa: E402
from odeobs.linalg import SingularMatrixError  # noqa: E402
from odeobs.model import (  # noqa: E402
    ConservedSet,
    NotAffineError,
    ZeroCoefficientError,
    parse_model,
    verify_all_conserved,
)
from odeobs.poly import (  # noqa: E402
    NONZERO_EXACT,
    ZERO_EXACT,
    is_zero,
    normalize_rational,
    rational_symbols,
)

from conftest import GEN_SYMBOLS, model_path, poly_to_sympy, random_expr  # noqa: E402
from test_generated_reports import DIMER, chain, mm_tail, twin  # noqa: E402

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
# one-row matrices, which rank takes without elimination: ints, Fractions,
# a zero row and an empty row
@example([[0, 3, -2]])
@example([[0, Fraction(-5, 3), Fraction(1, 2)]])
@example([[0, Fraction(0), 0]])
@example([[]])
def test_rank_matches_sympy(m):
    assert linalg.rank([[Fraction(v) for v in row] for row in m]) == sympy_rank(m)


def test_rank_matches_sympy_on_tall_big_integer_matrices():
    # the shape of the twin-3 Jacobians (up to 12 x 6), products of two
    # factors of up to 40-bit ints, so entries reach 80 bits; some factor
    # entries are zero, so rows with a zero in the pivot column occur
    rng = random.Random(1307)
    deficient = 0
    for _ in range(120):
        cols = rng.randint(2, 6)
        rows = rng.randint(cols, 12)
        inner = rng.randint(1, cols)
        bits = rng.choice((8, 40))

        def entry():
            return 0 if rng.random() < 0.3 else rng.randint(-(2**bits), 2**bits)

        left = [[entry() for _ in range(inner)] for _ in range(rows)]
        right = [[entry() for _ in range(cols)] for _ in range(inner)]
        m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        assert all(type(x) is int for row in m for x in row)
        expected = sympy.Matrix(m).rank()
        assert linalg.rank(m) == expected
        deficient += expected < cols
    assert deficient > 60


SYMPY_SYMBOLS = {s: sympy.Symbol(s.name) for s in GEN_SYMBOLS}


def to_sympy(e):
    if isinstance(e, Const):
        return sympy.Rational(e.value.numerator, e.value.denominator)
    if isinstance(e, Sym):
        return sympy.Symbol(e.symbol.name)
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


@SETTINGS
@given(st.integers(0, 2**32))
def test_graph_dependence_matches_sympy_cancel(seed):
    # the planted common factors of rational_expr make symbols that occur in
    # the tree but cancel from the function
    e = rational_expr(random.Random(seed))
    assume(defined(e))
    by_name = {SYMPY_SYMBOLS[s]: s for s in GEN_SYMBOLS}
    expected = {by_name[v] for v in sympy.cancel(to_sympy(e)).free_symbols}
    assert rational_symbols(e) == expected


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


@SETTINGS
@given(st.integers(0, 2**32))
def test_nonzero_witness_is_a_nonzero_value_in_the_domain(seed):
    e = rational_expr(random.Random(seed))
    assume(defined(e))
    result = is_zero(e, seed=seed)
    assume(result.kind == NONZERO_EXACT)
    if result.witness:
        assert eval_exact(e, result.witness) != 0  # and raises at no pole
    else:
        # {}: nonzero wherever defined, so the reduced numerator is a constant
        assert sympy.fraction(sympy.cancel(to_sympy(e)))[0].is_number


def sympy_model(text):
    """States, parameters, right-hand sides, observation sets and conserved
    quantities of a model file, read by sympy alone: ``^`` is ``**`` and
    ``ln`` is ``log``.  Every declared name is read through a prefixed alias,
    so that ``lambda``, ``I`` or ``beta`` are plain symbols."""
    names, rhs, observations, conserved = {}, {}, {}, {}

    def declare(body):
        return [names.setdefault(n.strip(), sympy.Symbol(n.strip())) for n in body.split(",")]

    def parse(body):
        body = re.sub(r"[A-Za-z_]\w*", lambda m: "v_" + m[0] if m[0] in names else m[0], body)
        aliases = {"v_" + n: v for n, v in names.items()}
        return sympy.parse_expr(
            body.replace("^", "**"), local_dict={**aliases, "ln": sympy.log, "exp": sympy.exp}
        )

    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        head, _, body = line.partition(":")
        if head in ("params", "states"):
            declare(body)
        equation = re.fullmatch(r"d(\w+)/dt\s*=\s*(.+)", line)
        if equation:
            rhs[names[equation[1]]] = parse(equation[2])
        elif head.startswith("observe "):
            observations[head[len("observe "):].strip()] = declare(body)
        elif head.startswith("conserved "):
            conserved[head[len("conserved "):].strip()] = parse(body)
    states = list(rhs)
    params = [v for v in names.values() if v not in rhs]
    return states, params, rhs, observations, conserved


def sympy_ranks(model, label, orders, rng, points=3):
    """The largest rank over ``points`` random rational points of the stacked
    gradients of each output and its Lie derivatives, up to each order."""
    states, params, rhs, observations, _ = model

    def value():
        return sympy.Rational(rng.randint(-1000, 1000), rng.randint(1, 50))

    best = dict.fromkeys(orders, 0)
    for _ in range(points):
        at = {p: value() for p in params}
        field = [rhs[x].xreplace(at) for x in states]
        stacks = []
        for h in observations[label]:
            stack = [h]
            for _ in range(max(orders)):
                stack.append(
                    sympy.expand(sum(sympy.diff(stack[-1], x) * f for x, f in zip(states, field)))
                )
            stacks.append(stack)
        point = {x: value() for x in states}
        for k in orders:
            rows = [
                [sympy.diff(stack[i], x).xreplace(point) for x in states]
                for stack in stacks
                for i in range(k + 1)
            ]
            best[k] = max(best[k], sympy.Matrix(rows).rank())
    return best


def check_rank_stops_by_order_n_minus_1(text, seed):
    model = sympy_model(text)
    n = len(model[0])
    sys = parse_model(text)
    for obs in sys.observations:
        ranks = sympy_ranks(model, obs.label, (n - 1, n), random.Random(seed))
        assert ranks[n] == ranks[n - 1], obs.label
        verdict = observability_verdict(sys, obs, seed=seed)
        assert verdict.rank.generic_rank == ranks[n - 1], obs.label
        assert verdict.rank_growing is (None if ranks[n - 1] == n else False)


CORPUS = {
    **{name: model_path(name).read_text() for name in ("sir", "mm", "toy", "lv")},
    "chain4": chain(4),
    "twin2": twin(2),
    "mm_tail2": mm_tail(2),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_rank_stops_growing_by_order_n_minus_1(name):
    check_rank_stops_by_order_n_minus_1(CORPUS[name], seed=7)


@st.composite
def polynomial_models(draw):
    """A model with n <= 4 states, polynomial right-hand sides of up to three
    terms of degree <= 2 over the states and one parameter, and one or two
    observed states."""
    n = draw(st.integers(1, 4))
    xs = [f"x{i}" for i in range(1, n + 1)]
    term = st.tuples(
        st.integers(-3, 3).filter(bool), st.lists(st.sampled_from(xs + ["a"]), max_size=2)
    )
    lines = ["model: poly", "params: a", "states: " + ", ".join(xs)]
    for x in xs:
        terms = draw(st.lists(term, min_size=1, max_size=3))
        lines.append(f"d{x}/dt = " + " + ".join("*".join([f"({c})", *fs]) for c, fs in terms))
    observed = draw(st.lists(st.sampled_from(xs), min_size=1, max_size=2, unique=True))
    lines.append("observe y: " + ", ".join(observed))
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polynomial_models(), st.integers(0, 2**16))
def test_rank_stops_growing_on_polynomial_systems(text, seed):
    check_rank_stops_by_order_n_minus_1(text, seed)


def lie(expr, states, field):
    return sum(sympy.diff(expr, x) * f for x, f in zip(states, field))


@pytest.mark.parametrize(
    "name, levels",
    [("sir", ("N",)), ("mm", ("E0",)), ("mm", ("S0",)), ("mm", ("E0", "S0")), ("toy", ("Q0",))],
)
def test_eliminate_states_matches_sympy(name, levels):
    text = model_path(name).read_text()
    states, _, rhs, _, conserved = sympy_model(text)
    f = [rhs[x] for x in states]
    sys, _ = verify_all_conserved(parse_model(text))
    g = ConservedSet(tuple(sys.conserved_named(level) for level in levels))
    equations = [conserved[level] - sympy.Symbol(level) for level in levels]
    solvable = []
    for w in itertools.combinations(states, len(levels)):
        solutions = sympy.solve(equations, w, dict=True)
        eliminate = [sys.state_named(str(v)) for v in w]
        if len(solutions) != 1 or set(solutions[0]) != set(w):
            with pytest.raises((NotAffineError, ZeroCoefficientError, SingularMatrixError)):
                eliminate_states(sys, g, eliminate)
            continue
        solvable.append(w)
        sigma = solutions[0]
        composed = [fx.xreplace(sigma) for fx in f]
        others = [(x, fx) for x, fx in zip(states, composed) if x not in sigma]
        ours = [to_sympy(e) for e in eliminate_states(sys, g, eliminate).rhs]
        for x, fx, got in zip(states, composed, ours):
            # an eliminated state moves as its solution does along the others
            expected = lie(sigma[x], *zip(*others)) if x in sigma else fx
            assert sympy.cancel(got - expected) == 0, (w, x)
            # which, as the quantities are conserved, is its own rate composed with the solution
            assert sympy.cancel(expected - fx) == 0, (w, x)
        # L^k_F x = (L^k_f x) o sigma for k >= 1, the chain-rule identity that
        # lets a candidate's Jacobian rows be read off the original system's
        for x in states:
            original, transformed = x, x
            for k in range(1, len(states)):
                original, transformed = lie(original, states, f), lie(transformed, states, ours)
                assert sympy.cancel(transformed - original.xreplace(sigma)) == 0, (w, x, k)
    assert solvable


def test_dimer_verdicts_match_sympy():
    model = states, params, rhs, observations, conserved = sympy_model(DIMER)
    f = [rhs[x] for x in states]
    level = sympy.Symbol("T")
    assert sympy.expand(lie(conserved["T"], states, f)) == 0
    sys, verdicts = verify_all_conserved(parse_model(DIMER))
    assert [v.status for v in verdicts] == ["exact"]
    for obs in sys.observations:
        assert sympy_ranks(model, obs.label, (1,), random.Random(3)) == {1: 2}
        verdict = observability_verdict(sys, obs, seed=3)
        assert (verdict.rank.generic_rank, verdict.rank.confidence) == (2, "exact")
    g = ConservedSet(sys.conserved)
    for known, candidate, printed in (("A", "B", "T - 2*B"), ("B", "A", "1/2*(T - A)")):
        search = alternative_observables(sys, g, [sys.state_named(known)], seed=3)
        assert search.positive_sets() == ((candidate,),)
        (result,) = search.positives()
        ((solved, solution),) = result.solution.items()
        assert (solved.name, to_str(solution)) == (known, printed)
        (expected,) = sympy.solve(conserved["T"] - level, sympy.Symbol(known))
        assert sympy.expand(sympy.parse_expr(printed) - expected) == 0
        # the candidate eliminated through the level equation and observed alone
        w = sympy.Symbol(candidate)
        sigma = {w: sympy.solve(conserved["T"] - level, w)[0]}
        composed = {x: fx.xreplace(sigma) for x, fx in zip(states, f) if x != w}
        composed[w] = lie(sigma[w], list(composed), list(composed.values()))
        transformed = (states, params + [level], composed, {"w": [w]}, {})
        assert sympy_ranks(transformed, "w", (1,), random.Random(3)) == {1: 2}
