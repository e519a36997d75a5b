import copy
import dataclasses
import gc
import hashlib
import math
import pickle
import random
import re
import time
import weakref
from fractions import Fraction
from typing import Mapping

import pytest

from odeobs.expr import (
    Add,
    Const,
    Div,
    DivisionByZeroError,
    DomainError,
    Exp,
    ExprError,
    ExprSyntaxError,
    Ln,
    MAX_NESTING,
    Mul,
    Neg,
    NonIntegerExponentError,
    ONE,
    PowInt,
    Sym,
    Symbol,
    TranscendentalNodeError,
    UnknownSymbolError,
    add,
    children,
    compile_exact,
    diff,
    div,
    eval_exact,
    eval_float,
    exp,
    free_symbols,
    has_ln_exp,
    ln,
    mul,
    neg,
    parse_expr,
    pow_int,
    substitute,
    sym,
    to_str,
)
import odeobs.embedding
import odeobs.expr
from odeobs.model import parse_model
from odeobs.poly import normalize_rational
from odeobs.report import build_report

from conftest import A, B, GEN_SYMBOLS, X, Y, Z, poly_to_sympy, random_expr, random_point
from test_generated_reports import chain, mm_tail

S = Symbol("S", "state")
I = Symbol("I", "state")
R = Symbol("R", "state")
BETA = Symbol("beta", "parameter")
LAM = Symbol("lam", "parameter")
SIR_SYMS = {s.name: s for s in (S, I, R, BETA, LAM)}


def count_nodes(e, node_type):
    stack = [e]
    seen = 0
    while stack:
        n = stack.pop()
        if isinstance(n, node_type):
            seen += 1
        if isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Neg):
            stack.append(n.arg)
        elif isinstance(n, Div):
            stack.extend((n.num, n.den))
        elif isinstance(n, (PowInt, Ln)):
            stack.append(n.base if isinstance(n, PowInt) else n.arg)
        elif hasattr(n, "arg"):
            stack.append(n.arg)
    return seen


class TestParse:
    def test_unary_minus_hoists_over_product(self):
        e = parse_expr("-beta*S*I", SIR_SYMS)
        assert isinstance(e, Neg)
        assert isinstance(e.arg, Mul)
        assert e.arg.factors == (Sym(BETA), Sym(S), Sym(I))

    def test_logarithmic_first_integral_has_two_ln_nodes(self):
        table = {
            n: Symbol(n, "state" if n in ("m", "r") else "parameter")
            for n in ("m", "r", "R", "M", "D", "B")
        }
        e = parse_expr("R*ln(m) + M*ln(r) - D*m - B*r", table)
        assert count_nodes(e, Ln) == 2

    def test_non_integer_exponent_rejected(self):
        with pytest.raises(NonIntegerExponentError):
            parse_expr("S^1.5", SIR_SYMS)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbolError):
            parse_expr("S*Q", SIR_SYMS)

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr("S + ", SIR_SYMS)
        assert err.value.position == 4

    @pytest.mark.parametrize(
        "text, message",
        [
            ("(S + 1", "expected ')' (at position 6)"),
            ("ln(S", "expected ')' (at position 4)"),
            ("S^I", "expected integer exponent (at position 2)"),
            ("1.5*S", "decimal literals are not supported; write a fraction p/q (at position 0)"),
        ],
    )
    def test_syntax_error_names_what_was_expected(self, text, message):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, SIR_SYMS)
        assert str(err.value) == message

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("2 S", SIR_SYMS)

    def test_minus_left_associative(self):
        e = parse_expr("S - I - R", SIR_SYMS)
        assert e == add(Sym(S), neg(Sym(I)), neg(Sym(R)))

    def test_power_binds_tighter_than_unary_minus(self):
        e = parse_expr("-S^2", SIR_SYMS)
        assert e == Neg(PowInt(Sym(S), 2))

    def test_fraction_literal(self):
        assert parse_expr("3/4", SIR_SYMS) == Const(Fraction(3, 4))

    def test_only_ln_and_exp_are_functions(self):
        with pytest.raises(UnknownSymbolError):
            parse_expr("sin(S)", SIR_SYMS)

    def test_nesting_limit_counts_parentheses_calls_and_minus_signs(self):
        # the deepest accepted input parses, mixing all three kinds of level
        third = MAX_NESTING // 3
        rest = MAX_NESTING - 2 * third
        deepest = "(" * third + "ln(" * third + "-" * rest + "S" + ")" * (2 * third)
        assert count_nodes(parse_expr(deepest, SIR_SYMS), Ln) == third
        for deeper in ("(" + deepest + ")", "-" + deepest, "exp(" + deepest + ")"):
            with pytest.raises(ExprSyntaxError, match="nesting deeper than"):
                parse_expr(deeper, SIR_SYMS)

    def test_division_chain_counts_toward_the_limit(self):
        longest = "S" + "/I" * MAX_NESTING
        assert count_nodes(parse_expr(longest, SIR_SYMS), Div) == MAX_NESTING
        inner = longest[2:]  # I/I/.../I, one division short
        for deeper in (longest + "/I", "(" + longest + ")", "ln(" + longest + ")", "S/(" + inner + ")"):
            with pytest.raises(ExprSyntaxError, match="nesting deeper than"):
                parse_expr(deeper, SIR_SYMS)
        # products do not count, and the levels close with the term
        products = parse_expr("S" + "*I" * (2 * MAX_NESTING), SIR_SYMS)
        assert count_nodes(products, Div) == 0
        side_by_side = parse_expr(" + ".join([longest] * 3), SIR_SYMS)
        assert count_nodes(side_by_side, Div) == 3 * MAX_NESTING

    def test_nesting_limit_is_not_a_total(self):
        # levels close again: many shallow groups side by side are fine
        text = " + ".join(["(" * 10 + "S" + ")" * 10] * (2 * MAX_NESTING))
        assert parse_expr(text, SIR_SYMS).terms == (Sym(S),) * (2 * MAX_NESTING)


# The parser as it was before the one-scan tokenizer, kept verbatim as the
# reference: a ``match`` loop that makes (kind, text, position) tuples, and a
# descent over those tuples.


_REFERENCE_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<float>\d+\.\d*|\.\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
    r")?"
)


def _reference_tokenize(text: str) -> list:
    """The tokens of ``text`` as ``(kind, text, position)`` tuples, ending
    with an ``eof`` one.  The kind of an operator token is the operator."""
    tokens = []
    append = tokens.append
    match = _REFERENCE_TOKEN_RE.match
    pos, end = 0, len(text)
    while True:
        m = match(text, pos)
        kind = m.lastgroup
        pos = m.end()
        if kind is None:
            if pos == end:
                break
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        token = m.group(kind)
        append((token if kind == "op" else kind, token, pos - len(token)))
    append(("eof", "", end))
    return tokens


class _ReferenceParser:
    """Recursive descent over the tokens, one method per grammar rule.  A
    sum and each run of ``*`` factors are built by one :func:`add` or
    :func:`mul` call, which flatten, so the node is the one the binary
    operations would build."""

    def __init__(self, tokens: list, table: Mapping[str, Symbol]):
        self.tokens = tokens
        self.i = 0
        self.table = table
        self.depth = 0  # parentheses and unary minus signs open at the cursor

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.i][0]

    def advance(self) -> tuple:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, _, pos = self.advance()
        if kind != op:
            raise ExprSyntaxError(f"expected {op!r}", pos)

    def enter(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", pos)

    def expr(self):
        terms = [self.term()]
        while True:
            kind = self.peek()
            if kind == "+":
                self.i += 1
                terms.append(self.term())
            elif kind == "-":
                self.i += 1
                terms.append(neg(self.term()))
            else:
                return terms[0] if len(terms) == 1 else add(*terms)

    def term(self):
        # each '/' nests the quotient so far one level deeper in the tree
        factors = [self.factor()]
        divisions = 0
        while True:
            kind = self.peek()
            if kind == "*":
                self.i += 1
                factors.append(self.factor())
            elif kind == "/":
                self.enter(self.advance()[2])
                divisions += 1
                num = factors[0] if len(factors) == 1 else mul(*factors)
                factors = [div(num, self.factor())]
            else:
                break
        self.depth -= divisions
        return factors[0] if len(factors) == 1 else mul(*factors)

    def factor(self):
        if self.peek() == "-":
            self.enter(self.advance()[2])
            e = neg(self.factor())
            self.depth -= 1
            return e
        a = self.atom()
        if self.peek() == "^":
            self.i += 1
            return pow_int(a, self.exponent())
        return a

    def exponent(self) -> int:
        sign = 1
        kind, text, pos = self.advance()
        if kind == "-":
            sign = -1
            kind, text, pos = self.advance()
        if kind == "float":
            raise NonIntegerExponentError(pos)
        if kind != "int":
            raise ExprSyntaxError("expected integer exponent", pos)
        return sign * int(text)

    def atom(self):
        kind, text, pos = self.advance()
        if kind == "(":
            self.enter(pos)
            e = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return e
        if kind == "int":
            return Const(Fraction(int(text)))
        if kind == "float":
            raise ExprSyntaxError(
                "decimal literals are not supported; write a fraction p/q", pos
            )
        if kind == "name":
            if text in ("ln", "exp") and self.peek() == "(":
                self.enter(self.advance()[2])
                arg = self.expr()
                self.expect_op(")")
                self.depth -= 1
                return ln(arg) if text == "ln" else exp(arg)
            if text not in self.table:
                raise UnknownSymbolError(text)
            return Sym(self.table[text])
        raise ExprSyntaxError(f"unexpected token {text!r}", pos)


def _reference_parse(text: str, symbols):
    if not isinstance(symbols, Mapping):
        symbols = {s.name: s for s in symbols}
    parser = _ReferenceParser(_reference_tokenize(text), symbols)
    e = parser.expr()
    kind, text, pos = parser.advance()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {text!r}", pos)
    return e


_PARSE_SYMBOLS = {
    name: Symbol(name, kind)
    for name, kind in (("x", "state"), ("y", "state"), ("k1", "parameter"), ("a_b", "parameter"))
}
# a table that declares the function names as symbols too
_PARSE_SYMBOLS_LN = dict(_PARSE_SYMBOLS, ln=Symbol("ln", "parameter"), exp=Symbol("exp", "state"))
_TOKEN_SOUP = (
    "x", "y", "k1", "a_b", "q", "ln", "exp", "sin", "x2", "0", "1", "7", "12", "3.", "1.5", ".5",
    "+", "-", "*", "/", "^", "^2", "^-1", "^1.5", "^ - .5", "(", ")", "ln(", "exp(", "/(", "$", "_", ".", "\u00e9", "\u0661\u0662",
    "\u00b2", "#",
)
_SPACES = ("", "", "", " ", "  ", "\t", "\n", "\u00a0", "\u2003")
_CHARS = "xyk1ab_ +-*/^().0123456789$\t\u00e9\u0661"


def _parse_outcome(parse, text, table):
    """The node parsed, or the error's type, message and position."""
    try:
        return parse(text, table)
    except ExprError as error:
        return type(error), str(error), getattr(error, "position", None)


def _corrupted(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        where = rng.randint(0, len(chars))
        move = rng.randrange(4)
        if move == 0 and chars:
            del chars[min(where, len(chars) - 1)]
        elif move == 1:
            chars.insert(where, rng.choice(_CHARS))
        elif move == 2 and chars:
            chars[min(where, len(chars) - 1)] = rng.choice(_CHARS)
        else:
            chars[where:where] = chars[where : where + rng.randint(1, 4)]
    return "".join(chars)


def _soup(rng):
    return "".join(
        rng.choice(_SPACES) + rng.choice(_TOKEN_SOUP) for _ in range(rng.randint(0, 12))
    ) + rng.choice(_SPACES)


def _nesting_texts():
    """Each kind of nesting level at MAX_NESTING - 1, MAX_NESTING and
    MAX_NESTING + 1 levels, whole and cut short."""
    texts = []
    for n in (MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1):
        whole = [
            "(" * n + "x" + ")" * n,
            "-" * n + "x",
            "x" + "/y" * n,
            "ln(" * n + "x" + ")" * n,
            "x" + "/(y" * n + ")" * n,
            "(" * (n // 2) + "-" * (n - n // 2) + "x" + ")" * (n // 2),
            "exp(" * (n // 2) + "x" + "/y" * (n - n // 2) + ")" * (n // 2),
            "x" + "/-y" * (n // 2) + "/y" * (n - 2 * (n // 2)),
        ]
        for text in whole:
            texts += [text, text[:-1], text + ")", text + " $", "q + " + text, text + "^2", text + "^1.5"]
    return texts


class TestParserAgainstReference:
    @pytest.mark.parametrize("table", [_PARSE_SYMBOLS, _PARSE_SYMBOLS_LN], ids=["plain", "ln-declared"])
    def test_random_and_corrupted_texts(self, table):
        rng = random.Random(2028)
        texts = []
        for _ in range(600):
            valid = to_str(random_expr(rng, depth=rng.randint(1, 4), symbols=(X, Y),
                                       allow_ln=rng.random() < 0.3))
            valid = valid.replace(" ", rng.choice(("", " ", "  ")))
            texts += [valid, _corrupted(rng, valid), _corrupted(rng, valid), _soup(rng)]
        texts = [t for t in texts if not re.search(r"\^[\s-]*\d{5}", t)]  # no huge powers of constants
        assert len(texts) > 2000
        outcomes = set()
        for text in texts:
            expected = _parse_outcome(_reference_parse, text, table)
            got = _parse_outcome(parse_expr, text, table)
            if isinstance(expected, tuple):
                assert got == expected, text
                outcomes.add(expected[1].split(" (at")[0].split("'")[0])
            else:
                assert got is expected, text
                outcomes.add("node")
        # every way to fail is reached
        assert outcomes >= {
            "node",
            "unexpected character ",
            "unexpected token ",
            "unexpected trailing input ",
            "expected ",  # ')'
            "expected integer exponent",
            "exponent must be an integer",
            "decimal literals are not supported; write a fraction p/q",
            "unknown symbol ",
        }

    def test_nesting_at_the_limit(self):
        outcomes = set()
        for text in _nesting_texts():
            expected = _parse_outcome(_reference_parse, text, _PARSE_SYMBOLS)
            got = _parse_outcome(parse_expr, text, _PARSE_SYMBOLS)
            if isinstance(expected, tuple):
                assert got == expected, text
                outcomes.add(expected[1].split(" (at")[0])
            else:
                assert got is expected, text
                outcomes.add("node")
        assert {"node", f"nesting deeper than {MAX_NESTING} levels"} <= outcomes


class TestDiff:
    def test_product_rule(self):
        e = mul(Sym(BETA), Sym(S), Sym(I))
        assert diff(e, S) == mul(Sym(BETA), Sym(I))

    def test_absent_variable(self):
        e = mul(Sym(LAM), Sym(I))
        assert diff(e, R) == Const(Fraction(0))

    def test_ln_derivative_against_finite_differences(self):
        # independent oracle: central differences of R*ln(m) at random points
        m = Symbol("m", "state")
        Rp = Symbol("R", "parameter")
        e = mul(Sym(Rp), ln(Sym(m)))
        d = diff(e, m)
        rng = random.Random(7)
        for _ in range(10):
            point = {m: rng.uniform(0.5, 10.0), Rp: rng.uniform(-5.0, 5.0)}
            h = 1e-6 * point[m]
            up = eval_float(e, {**point, m: point[m] + h})
            down = eval_float(e, {**point, m: point[m] - h})
            oracle = (up - down) / (2 * h)
            got = eval_float(d, point)
            assert got == pytest.approx(oracle, rel=1e-8)

    def test_diff_is_linear(self):
        # exact identity via rational forms; structural equality would force
        # distributing constants over sums, which construction never does
        from odeobs.poly import normalize_rational

        rng = random.Random(11)
        for _ in range(120):
            e1 = random_expr(rng, depth=3)
            e2 = random_expr(rng, depth=3)
            a = Const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            v = rng.choice(GEN_SYMBOLS)
            lhs = diff(add(mul(a, e1), e2), v)
            rhs = add(mul(a, diff(e1, v)), diff(e2, v))
            assert normalize_rational(add(lhs, neg(rhs))).num.is_zero

    def test_diff_linear_structurally_for_signs(self):
        rng = random.Random(12)
        for _ in range(150):
            e1 = random_expr(rng, depth=3)
            e2 = random_expr(rng, depth=3)
            v = rng.choice(GEN_SYMBOLS)
            for a in (Const(Fraction(1)), Const(Fraction(-1)), Const(Fraction(0))):
                lhs = diff(add(mul(a, e1), e2), v)
                rhs = add(mul(a, diff(e1, v)), diff(e2, v))
                assert lhs == rhs

    def test_chain_rule_through_substitution(self):
        # d/du of e[v := w] == (de/dv)[v := w] * dw/du + (de/du)[v := w]
        rng = random.Random(13)
        checked = 0
        while checked < 60:
            e = random_expr(rng, depth=3, allow_div=False)
            w = random_expr(rng, depth=2, allow_div=False)
            v, u = X, Y
            lhs = diff(substitute(e, {v: w}), u)
            rhs = add(
                mul(substitute(diff(e, v), {v: w}), diff(w, u)),
                substitute(diff(e, u), {v: w}),
            )
            point = random_point(rng)
            try:
                left = eval_exact(lhs, point)
                right = eval_exact(rhs, point)
            except DivisionByZeroError:
                continue
            assert left == right
            checked += 1


class TestSubstitute:
    def test_conserved_elimination_matches_by_value(self):
        # beta*S*I - lam*I with I -> N - S - R equals (beta*S - lam)*(N - S - R)
        N = Symbol("N", "parameter")
        table = dict(SIR_SYMS, N=N)
        e = parse_expr("beta*S*I - lam*I", table)
        res = substitute(e, {I: parse_expr("N - S - R", table)})
        expected = parse_expr("(beta*S - lam)*(N - S - R)", table)
        rng = random.Random(3)
        for _ in range(20):
            point = {s: Fraction(rng.randint(-9, 9)) for s in (S, I, R, BETA, LAM, N)}
            assert eval_exact(res, point) == eval_exact(expected, point)

    def test_empty_bindings_identity(self):
        e = parse_expr("beta*S*I - lam*I", SIR_SYMS)
        assert substitute(e, {}) is e

    def test_substitution_is_simultaneous(self):
        # x -> y, y -> x swaps rather than cascading
        e = add(sym(X), mul(Const(Fraction(2)), sym(Y)))
        res = substitute(e, {X: sym(Y), Y: sym(X)})
        assert res == add(sym(Y), mul(Const(Fraction(2)), sym(X)))

    def test_enzyme_substitution(self):
        k1 = Symbol("k1", "parameter")
        E0 = Symbol("E0", "parameter")
        e_, s_, c_ = Symbol("e", "state"), Symbol("s", "state"), Symbol("c", "state")
        table = {x.name: x for x in (k1, E0, e_, s_, c_)}
        expr = parse_expr("k1*e*s", table)
        res = substitute(expr, {e_: parse_expr("E0 - c", table)})
        expected = parse_expr("k1*(E0 - c)*s", table)
        rng = random.Random(5)
        for _ in range(10):
            point = {x: Fraction(rng.randint(-9, 9)) for x in (k1, E0, e_, s_, c_)}
            assert eval_exact(res, point) == eval_exact(expected, point)

    def test_substitution_reaches_inside_exp_and_ln(self):
        e = parse_expr("exp(S*I) - ln(I)", SIR_SYMS)
        res = substitute(e, {I: parse_expr("R + 1", SIR_SYMS)})
        assert res is parse_expr("exp(S*(R + 1)) - ln(R + 1)", SIR_SYMS)

    def test_shared_dag_substitutes_once_per_node(self):
        # e -> e*x + e, 18 times: 4x more paths per level, 3 more nodes
        def nested(v):
            e = sym(v)
            for _ in range(18):
                e = add(mul(e, sym(v)), e)
            return e

        e, expected = nested(X), nested(Y)
        start = time.perf_counter()
        res = substitute(e, {X: sym(Y)})
        elapsed = time.perf_counter() - start
        assert res is expected
        assert elapsed < 0.1


def _full_walk_substitute(e, bindings, memo):
    """Reference substitution: every subtree rebuilt through the
    constructors, memoized by identity."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Const):
        result = e
    elif isinstance(e, Sym):
        result = bindings.get(e.symbol, e)
    elif isinstance(e, Add):
        result = add(*[_full_walk_substitute(t, bindings, memo) for t in e.terms])
    elif isinstance(e, Mul):
        result = mul(*[_full_walk_substitute(f, bindings, memo) for f in e.factors])
    elif isinstance(e, Neg):
        result = neg(_full_walk_substitute(e.arg, bindings, memo))
    elif isinstance(e, Div):
        result = div(
            _full_walk_substitute(e.num, bindings, memo), _full_walk_substitute(e.den, bindings, memo)
        )
    elif isinstance(e, PowInt):
        result = pow_int(_full_walk_substitute(e.base, bindings, memo), e.exponent)
    elif isinstance(e, Ln):
        result = ln(_full_walk_substitute(e.arg, bindings, memo))
    else:
        result = exp(_full_walk_substitute(e.arg, bindings, memo))
    memo[id(e)] = (e, result)
    return result


def _constructor_expr(rng, depth, pool):
    """Random constructor-built expression over x, y, z, a, b with constants
    0, 1, -1 and 2/3, subtrees shared through ``pool``, and every node kind."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.25:
            return Const(rng.choice((Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3))))
        return sym(rng.choice(GEN_SYMBOLS))

    def sub():
        return _constructor_expr(rng, depth - 1, pool)

    build = rng.choice(
        (
            lambda: add(sub(), sub(), sub()),
            lambda: mul(sub(), sub()),
            lambda: neg(sub()),
            lambda: div(sub(), sub()),
            lambda: pow_int(sub(), rng.choice((-2, 2, 3))),
            lambda: ln(sub()),
            lambda: exp(sub()),
        )
    )
    e = build()
    pool.append(e)
    return e


class TestPrunedSubstitute:
    def test_matches_the_full_walk_on_constructor_built_trees(self):
        rng = random.Random(2802)
        untouched = 0
        for _ in range(500):
            e = _constructor_expr(rng, 4, [])
            bound = rng.sample(GEN_SYMBOLS, rng.randint(1, 2))
            bindings = {v: _constructor_expr(rng, 2, []) for v in bound}
            result = substitute(e, bindings)
            assert result is _full_walk_substitute(e, bindings, {})
            untouched += result is e
        assert 50 < untouched < 450  # both cases occur

    def test_a_subtree_without_a_bound_symbol_is_not_visited(self, monkeypatch):
        e = parse_expr("beta*S*I - lam*I + ln(beta + lam)*S", SIR_SYMS)
        expected = parse_expr("beta*S*R - lam*R + ln(beta + lam)*S", SIR_SYMS)
        rebuilt = []
        for name in ("add", "mul", "ln"):
            constructor = getattr(odeobs.expr, name)
            monkeypatch.setattr(
                odeobs.expr, name, lambda *args, _c=constructor, _n=name: rebuilt.append(_n) or _c(*args)
            )
        assert substitute(e, {I: sym(R)}) is expected
        # the sum and the two products that mention I; not ln(beta + lam)*S
        assert sorted(rebuilt) == ["add", "mul", "mul"]

    def test_hand_built_node_out_of_normal_form_is_returned_unrebuilt(self):
        # add would drop the zero term: the full walk rebuilds the node, the
        # pruned substitution returns it as it is when it mentions no bound
        # symbol, and rebuilds it when it does
        hand = Add((sym(A), Const(Fraction(0))))
        assert substitute(hand, {X: sym(Y)}) is hand
        assert _full_walk_substitute(hand, {X: sym(Y)}, {}) is sym(A)
        hand_x = Add((sym(X), Const(Fraction(0))))
        assert substitute(hand_x, {X: sym(Y)}) is sym(Y)


class TestEval:
    def test_exact_arithmetic(self):
        e = mul(Sym(BETA), Sym(S), Sym(I))
        point = {BETA: Fraction(1, 2), S: Fraction(4), I: Fraction(3)}
        assert eval_exact(e, point) == Fraction(6)

    def test_pole_raises(self):
        e = parse_expr("1/(S - 1)", SIR_SYMS)
        with pytest.raises(DivisionByZeroError):
            eval_exact(e, {S: Fraction(1)})

    def test_transcendental_node_rejected_exactly(self):
        m = Symbol("m", "state")
        with pytest.raises(TranscendentalNodeError):
            eval_exact(ln(sym(m)), {m: Fraction(2)})

    def test_float_exp_zero(self):
        from odeobs.expr import exp

        assert eval_float(exp(Const(Fraction(0))), {}) == 1.0

    def test_float_lv_value_at_stationary_point(self):
        # direct arithmetic oracle at (r, m) = (M/B, R/D) for chosen parameters
        r_, m_ = Symbol("r", "state"), Symbol("m", "state")
        Rp, Dp, Bp, Mp = (Symbol(n, "parameter") for n in ("R", "D", "B", "M"))
        table = {x.name: x for x in (r_, m_, Rp, Dp, Bp, Mp)}
        h = parse_expr("R*ln(m) + M*ln(r) - D*m - B*r", table)
        params = {Rp: 2.0, Dp: 1.0, Bp: 1.0, Mp: 3.0}
        point = {**params, r_: 3.0, m_: 2.0}  # (M/B, R/D)
        expected = 2.0 * math.log(2.0) + 3.0 * math.log(3.0) - 1.0 * 2.0 - 1.0 * 3.0
        assert eval_float(h, point) == pytest.approx(expected, rel=1e-14)

    def test_float_ln_domain(self):
        m = Symbol("m", "state")
        with pytest.raises(DomainError):
            eval_float(ln(sym(m)), {m: -1.0})


class TestStructure:
    def _check_invariants(self, e):
        stack = [e]
        while stack:
            n = stack.pop()
            if isinstance(n, Add):
                assert len(n.terms) >= 2
                stack.extend(n.terms)
            elif isinstance(n, Mul):
                assert len(n.factors) >= 2
                for f in n.factors:
                    assert not isinstance(f, (Neg, Mul))
                    if isinstance(f, Const):
                        assert f.value > 0 and f.value != 1
                stack.extend(n.factors)
            elif isinstance(n, PowInt):
                assert n.exponent not in (0, 1)
                stack.append(n.base)
            elif isinstance(n, Div):
                assert n.den != Const(Fraction(1))
                stack.extend((n.num, n.den))
            elif isinstance(n, Neg):
                assert not isinstance(n.arg, (Neg, Const))
                stack.append(n.arg)
            elif isinstance(n, Ln):
                stack.append(n.arg)

    def test_constructor_invariants_on_random_exprs(self):
        rng = random.Random(17)
        for _ in range(300):
            self._check_invariants(random_expr(rng, depth=4, allow_ln=True))

    def test_print_parse_round_trip(self):
        rng = random.Random(19)
        table = {s.name: s for s in GEN_SYMBOLS}
        for _ in range(400):
            e = random_expr(rng, depth=4, allow_ln=True)
            assert parse_expr(to_str(e), table) == e

    def test_round_trip_survives_derived_expressions(self):
        # derivatives and substitutions reach node shapes the generator
        # may not produce directly
        rng = random.Random(20)
        table = {s.name: s for s in GEN_SYMBOLS}
        for _ in range(150):
            e = random_expr(rng, depth=4, allow_ln=True)
            v = rng.choice(GEN_SYMBOLS)
            d = diff(e, v)
            assert parse_expr(to_str(d), table) == d
            w = random_expr(rng, depth=2, allow_ln=True)
            s = substitute(e, {v: w})
            assert parse_expr(to_str(s), table) == s

    def test_pow_zero_and_one_collapse(self):
        assert pow_int(sym(X), 0) == Const(Fraction(1))
        assert pow_int(sym(X), 1) == sym(X)

    def test_free_symbols(self):
        e = parse_expr("beta*S*I - lam*I", SIR_SYMS)
        assert free_symbols(e) == frozenset({BETA, S, I, LAM})


def _structure(e):
    """A node's structure as nested tuples, compared by value."""
    if isinstance(e, Const):
        return ("Const", e.value)
    if isinstance(e, Sym):
        return ("Sym", e.symbol)
    if isinstance(e, PowInt):
        return ("PowInt", _structure(e.base), e.exponent)
    return (type(e).__name__,) + tuple(_structure(c) for c in children(e))


class TestInterning:
    def test_text_parsed_twice_is_one_object(self):
        table = {s.name: s for s in GEN_SYMBOLS}
        for text in ("x^2 + 3*x/(y + 1)", "-a*ln(x^2 + 1) + exp(b - z)", "7/3", "x"):
            assert parse_expr(text, table) is parse_expr(text, table)

    def test_parser_output_is_the_constructed_expression(self):
        e = parse_expr("beta*S*I - lam*I/(R + 2)^2 + ln(S)", SIR_SYMS)
        built = add(
            mul(sym(BETA), sym(S), sym(I)),
            neg(div(mul(sym(LAM), sym(I)), pow_int(add(sym(R), 2), 2))),
            ln(sym(S)),
        )
        assert e is built
        assert Const(2) is Const(Fraction(2)) is Const(Fraction(4, 2))
        # long chains: one add/mul call per sum or run of factors gives the
        # node that the binary operations, applied left to right, give
        xs = [Symbol(f"x{i}", "state") for i in range(200)]
        table = {s.name: s for s in xs}
        terms = [sym(s) for s in xs]
        pairwise = terms[0]
        for t in terms[1:]:
            pairwise = add(pairwise, t)
        assert parse_expr(" + ".join(s.name for s in xs), table) is pairwise
        pairwise = terms[0]
        for t in terms[1:50]:
            pairwise = mul(pairwise, t)
        assert parse_expr("*".join(s.name for s in xs[:50]), table) is pairwise
        a, b, c, d, e = terms[:5]
        assert parse_expr("x0*x1/x2*x3/x4", table) is div(mul(div(mul(a, b), c), d), e)
        assert parse_expr("x0 - x1 - x2 - x3", table) is add(
            add(add(a, neg(b)), neg(c)), neg(d)
        )
        # signs and constants folded along a chain
        left = mul(mul(neg(Const(2)), a), Const(3))
        left = add(left, neg(ONE))
        left = add(left, mul(div(mul(b, neg(c)), Const(4)), d))
        left = add(add(add(left, ONE), neg(e)), Const(2))
        assert parse_expr("-2*x0*3 - 1 + x1*-x2/4*x3 + 1 - x4 + 2", table) is left

    def test_structure_equal_exactly_when_identical(self):
        for seed in range(1000):
            first = random_expr(random.Random(seed), depth=4, allow_ln=True)
            second = random_expr(random.Random(seed), depth=4, allow_ln=True)
            assert first is second
            other = random_expr(random.Random(seed + 1000), depth=4, allow_ln=True)
            assert (first is other) == (_structure(first) == _structure(other))

    def test_copy_and_pickle_return_the_interned_node(self):
        rng = random.Random(29)
        for _ in range(50):
            e = random_expr(rng, depth=4, allow_ln=True)
            assert copy.copy(e) is e
            assert copy.deepcopy(e) is e
            assert pickle.loads(pickle.dumps(e)) is e

    def test_repr_and_immutability(self):
        e = parse_expr("x + 1", {"x": X})
        assert repr(e) == (
            "Add(terms=(Sym(symbol=Symbol(name='x', kind='state')), "
            "Const(value=Fraction(1, 1))))"
        )
        with pytest.raises(dataclasses.FrozenInstanceError):
            e.terms = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del e.terms

    def test_symbols_are_interned(self):
        text = "model: m\nparams: k\nstates: u, w\ndu/dt = -k*u\ndw/dt = u\nobserve u: u\n"
        first, second = parse_model(text), parse_model(text)
        assert first.states[0] is second.states[0] is Symbol("u", "state")
        assert first.params[0] is Symbol(name="k", kind="parameter")
        assert Symbol("u", "parameter") is not Symbol("u", "state")
        assert hash(X) == object.__hash__(X)

    def test_symbol_copy_pickle_repr_and_immutability(self):
        for s in (X, BETA):
            assert copy.copy(s) is s
            assert copy.deepcopy(s) is s
            assert pickle.loads(pickle.dumps(s)) is s
            assert copy.deepcopy({s: sym(s)}) == {s: sym(s)}
        assert repr(X) == "Symbol(name='x', kind='state')"
        assert repr(BETA) == "Symbol(name='beta', kind='parameter')"
        assert X.sort_key == (0, "x") and BETA.sort_key == (1, "beta")
        assert str(X) == "x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            X.name = "z"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del X.kind

    def test_symbol_validation(self):
        for name in ("", "1x", "x-y", "x y", "_x"):
            with pytest.raises(ValueError, match="invalid symbol name"):
                Symbol(name, "state")
        with pytest.raises(ValueError, match="invalid symbol kind"):
            Symbol("x", "constant")

    def test_table_drops_symbols_that_die(self):
        gc.collect()
        before = len(odeobs.expr._interned)
        s = Symbol("short_lived", "state")
        e = add(sym(s), 1)
        assert len(odeobs.expr._interned) == before + 3  # the symbol, Sym, Add
        del s, e
        gc.collect()
        assert len(odeobs.expr._interned) == before

    def test_table_empties_when_a_report_is_dropped(self):
        gc.collect()
        before = len(odeobs.expr._interned)
        sys = parse_model(mm_tail(3))
        report = build_report(sys, seed=0)
        assert len(odeobs.expr._interned) > before
        del sys, report
        gc.collect()
        assert len(odeobs.expr._interned) == before

def tree_walk_exact(e, point):
    """Reference evaluator: a plain recursive walk, children left to right
    (a quotient's numerator before its denominator), each before its node;
    ln/exp raise after their argument has run."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Sym):
        return Fraction(point[e.symbol])
    if isinstance(e, Add):
        return sum((tree_walk_exact(t, point) for t in e.terms), Fraction(0))
    if isinstance(e, Mul):
        total = Fraction(1)
        for f in e.factors:
            total *= tree_walk_exact(f, point)
        return total
    if isinstance(e, Neg):
        return -tree_walk_exact(e.arg, point)
    if isinstance(e, Div):
        n = tree_walk_exact(e.num, point)
        d = tree_walk_exact(e.den, point)
        if d == 0:
            raise DivisionByZeroError(e)
        return n / d
    if isinstance(e, PowInt):
        b = tree_walk_exact(e.base, point)
        if b == 0 and e.exponent < 0:
            raise DivisionByZeroError(e)
        return b**e.exponent
    tree_walk_exact(e.arg, point)
    raise TranscendentalNodeError(e)


def walk_outcome(evaluate):
    """A value, or the class and subexpression of the error it raised."""
    try:
        return evaluate()
    except (DivisionByZeroError, TranscendentalNodeError) as exc:
        return type(exc), exc.subexpr


def shared_matrix(rng):
    """A 3x2 matrix whose entries share subtrees, both as one object reused and
    as structurally equal copies, with denominators that vanish at small
    integer points."""
    table = {s.name: s for s in GEN_SYMBOLS}
    a = random_expr(rng, depth=3)
    b = random_expr(rng, depth=2)
    a_copy = parse_expr(to_str(a), table)  # equal structure, distinct objects
    pole = add(sym(rng.choice(GEN_SYMBOLS)), Const(Fraction(rng.randint(-2, 2))))
    return (
        (add(mul(a, b), a_copy), div(a, pole)),
        (pow_int(add(a, b), -2), mul(div(b, pole), a_copy, a)),
        (neg(a_copy), add(a, neg(b))),
    )


def reference_lowering(rows):
    """The lowering written plainly: a table lookup at every node, the
    children read by isinstance.  Returns the instructions and outputs."""
    instrs, by_node = [], {}

    def kids(e):
        if isinstance(e, Add):
            return e.terms
        if isinstance(e, Mul):
            return e.factors
        if isinstance(e, Div):
            return (e.num, e.den)
        if isinstance(e, PowInt):
            return (e.base,)
        if isinstance(e, (Neg, Ln, Exp)):
            return (e.arg,)
        return ()

    def emit(e):
        if e in by_node:
            return by_node[e]
        assert children(e) == kids(e)
        if isinstance(e, Sym):
            instr = (Sym, (), e.symbol)
        elif isinstance(e, Const):
            value = e.value
            instr = (Const, (), value.numerator if value.denominator == 1 else value)
        else:
            instr = (type(e), tuple(emit(c) for c in kids(e)), e)
        by_node[e] = len(instrs)
        instrs.append(instr)
        return by_node[e]

    outputs = tuple(tuple(emit(e) for e in row) for row in rows)
    return tuple(instrs), outputs


class TestCompileExact:
    def test_lowering_is_the_reference_with_one_call_per_instruction(self, monkeypatch):
        calls = []
        for name in ("value", "emit"):
            method = getattr(odeobs.expr._Lowering, name)

            def counted(self, e, method=method, name=name):
                calls.append(name)
                return method(self, e)

            monkeypatch.setattr(odeobs.expr._Lowering, name, counted)
        rng = random.Random(71)
        for i in range(200):
            if i % 2:
                rows = shared_matrix(rng)
            else:
                e = random_expr(rng, depth=4, allow_ln=True)
                rows = ((e, exp(e)), tuple(diff(e, v) for v in GEN_SYMBOLS[:2]), (e, e))
            calls.clear()
            program = compile_exact(rows)
            instrs, outputs = reference_lowering(rows)
            # a lookup per entry, and a recursive call per instruction
            assert calls.count("value") == sum(map(len, rows))
            assert calls.count("emit") == len(program.instrs)
            assert program.instrs == instrs and program.outputs == outputs
            assert [type(p) for _, _, p in program.instrs] == [type(p) for _, _, p in instrs]

    def test_matches_tree_walk_on_shared_dags(self):
        rng = random.Random(41)
        outcomes = []
        for _ in range(150):
            rows = shared_matrix(rng)
            program = compile_exact(rows)
            for _ in range(4):
                point = {s: Fraction(rng.randint(-3, 3)) for s in GEN_SYMBOLS}
                got = walk_outcome(lambda: program.run(point))
                expected = walk_outcome(
                    lambda: [[tree_walk_exact(e, point) for e in row] for row in rows]
                )
                assert got == expected  # same values, or the same error at the same node
                outcomes.append(isinstance(got, tuple))
        assert 50 < sum(outcomes) < len(outcomes) - 200  # poles and values both seen

    def test_single_expressions_agree_with_canonical_form(self):
        rng = random.Random(43)
        values = 0
        for _ in range(300):
            e = random_expr(rng, depth=3)
            point = {s: Fraction(rng.randint(-3, 3)) for s in GEN_SYMBOLS}
            expected = walk_outcome(lambda: tree_walk_exact(e, point))
            assert walk_outcome(lambda: eval_exact(e, point)) == expected
            if isinstance(expected, tuple):
                continue
            # where the tree is defined, the unreduced denominator is nonzero
            assert expected == normalize_rational(e).eval(point)
            values += 1
        assert values > 150

    def test_every_evaluator_blames_the_same_pole(self):
        # identically zero denominators in numerators, in denominators and
        # under negative powers: each evaluator raises at the first in
        # post-order, so a numerator's pole before its denominator's
        x_pole = div(ONE, add(sym(X), neg(sym(X))))  # 1/(x - x)
        y_zero = add(sym(Y), neg(sym(Y)))  # y - y
        y_power = pow_int(y_zero, -2)  # (y - y)^-2
        cases = [
            (div(x_pole, y_zero), x_pole),
            (div(add(x_pole, ONE), y_zero), x_pole),
            (div(sym(Z), div(ONE, y_zero)), div(ONE, y_zero)),
            (div(y_power, x_pole), y_power),
            (div(sym(Z), y_power), y_power),
            (pow_int(add(x_pole, sym(Z)), -3), x_pole),
            (mul(sym(Z), y_power, x_pole), y_power),
            (add(div(sym(Z), y_zero), pow_int(add(sym(X), neg(sym(X))), -1)), div(sym(Z), y_zero)),
        ]
        exact = {X: 1, Y: 2, Z: 3}
        floats = {X: 1.0, Y: 2.0, Z: 3.0}
        for e, pole in cases:
            program = compile_exact(((sym(Z), e),))
            for evaluate in (
                lambda: normalize_rational(e),
                lambda: program.run(exact),
                lambda: program.run_float(floats),
            ):
                with pytest.raises(DivisionByZeroError) as err:
                    evaluate()
                assert err.value.subexpr is pole

    def test_exponential_tree_size_evaluates_once_per_node(self):
        # e_k = x/(1 + k x) built as e_{k+1} = e_k / (e_k + 1): a tree of 2^60
        # nodes, which no tree walk could finish, and 121 distinct ones
        e = sym(X)
        for _ in range(60):
            e = div(e, add(e, ONE))
        assert eval_exact(e, {X: Fraction(1)}) == Fraction(1, 61)
        assert eval_exact(e, {X: Fraction(2)}) == Fraction(2, 121)

    def test_transcendental_nodes_raise_after_their_argument(self):
        pole = div(ONE, add(sym(X), neg(sym(X))))
        bad = ln(div(ONE, sym(X)))
        for evaluate in (lambda e: eval_exact(e, {X: Fraction(1)}), normalize_rational):
            with pytest.raises(DivisionByZeroError) as err:
                evaluate(ln(pole))
            assert err.value.subexpr is pole
            with pytest.raises(TranscendentalNodeError) as err:
                evaluate(bad)
            assert err.value.subexpr is bad
        program = compile_exact(((sym(Y), exp(sym(Z))),))
        assert not program.rational
        assert program.symbols == frozenset({Y, Z})
        with pytest.raises(TranscendentalNodeError) as err:
            program.run({Y: Fraction(1), Z: Fraction(0)})
        assert isinstance(err.value.subexpr, Exp)

    def test_symbols_and_missing_binding(self):
        program = compile_exact(((mul(sym(X), sym(A)), ONE), (sym(Y), ONE)))
        assert program.rational
        assert program.symbols == frozenset({X, A, Y})
        with pytest.raises(UnknownSymbolError):
            program.run({X: Fraction(1), A: Fraction(2)})

    def test_runs_are_independent(self):
        rows = ((div(ONE, sym(X)), pow_int(sym(X), 3)),)
        program = compile_exact(rows)
        assert program.run({X: Fraction(2)}) == [[Fraction(1, 2), Fraction(8)]]
        with pytest.raises(DivisionByZeroError):
            program.run({X: Fraction(0)})
        assert program.run({X: Fraction(-1)}) == [[Fraction(-1), Fraction(-1)]]


    def test_integral_values_stay_int(self):
        rng = random.Random(59)
        for _ in range(200):
            a, b = random_expr(rng, depth=3), random_expr(rng, depth=2)
            rows = (
                (div(a, b), pow_int(a, -3)),
                (mul(Const(Fraction(2, 3)), a), add(a, pow_int(b, -1))),
            )
            program = compile_exact(rows)
            for point in (
                {s: Fraction(rng.randint(-3, 3)) for s in GEN_SYMBOLS},
                random_point(rng, bound=3),
            ):
                expected = walk_outcome(
                    lambda: [[tree_walk_exact(e, point) for e in row] for row in rows]
                )
                assert walk_outcome(lambda: program.run(point)) == expected
        program = compile_exact(
            (
                (
                    mul(sym(X), sym(Y)),
                    div(sym(X), sym(Y)),
                    div(sym(Y), sym(X)),
                    pow_int(sym(X), -2),
                    pow_int(sym(Y), -1),
                    add(sym(X), Const(Fraction(1, 2))),
                ),
            )
        )
        values = program.run({X: Fraction(4), Y: -1})[0]
        assert values == [-4, -4, Fraction(-1, 4), Fraction(1, 16), -1, Fraction(9, 2)]
        assert [type(v) for v in values] == [int, int, Fraction, Fraction, int, Fraction]

    def test_equal_ln_exp_subtrees_built_apart_are_one_instruction(self):
        table = {s.name: s for s in GEN_SYMBOLS}
        for text in ("ln(x^2 + 1)", "exp(y*ln(x + 2))", "ln(exp(x)/(y + 1))*z"):
            first, second = parse_expr(text, table), parse_expr(text, table)
            assert first is second
            once = compile_exact(((first,),))
            twice = compile_exact(((first, second), (second, first)))
            assert len(twice.instrs) == len(once.instrs)

    def test_symbols_are_those_of_the_entries(self):
        rng = random.Random(67)
        for _ in range(200):
            rows = [[random_expr(rng, depth=4, allow_ln=True) for _ in range(2)] for _ in range(2)]
            program = compile_exact(rows)
            assert program.symbols == frozenset().union(
                *(free_symbols(e) for row in rows for e in row)
            )
            assert program.rational is not any(has_ln_exp(e) for row in rows for e in row)

    def test_pole_before_the_first_transcendental_node_is_reported(self):
        pole = div(sym(Y), sym(X))
        point = {X: Fraction(0), Y: Fraction(1)}
        for rows in (((pole, ln(sym(Y))),), ((add(pole, exp(sym(Y))),),)):
            with pytest.raises(DivisionByZeroError) as err:
                compile_exact(rows).run(point)
            assert err.value.subexpr is pole

    def test_pole_after_the_first_transcendental_node_is_not_reached(self):
        inner = ln(sym(X))
        program = compile_exact(((ln(inner), div(ONE, sym(X))),))
        with pytest.raises(TranscendentalNodeError) as err:
            program.run({X: Fraction(0)})
        assert err.value.subexpr is inner
        first = exp(sym(Y))
        program = compile_exact(((mul(first, div(ONE, sym(X))), ln(sym(X))),))
        with pytest.raises(TranscendentalNodeError) as err:
            program.run({X: Fraction(0), Y: Fraction(1)})
        assert err.value.subexpr is first

    def test_eval_exact_returns_fraction(self):
        assert type(eval_exact(mul(sym(X), sym(Y)), {X: Fraction(2), Y: 3})) is Fraction
        assert type(eval_exact(div(sym(X), sym(Y)), {X: 1, Y: 2})) is Fraction


class TestNodeErrors:
    def test_pole_over_deep_shared_dag_raises_at_once(self):
        # the numerator prints as a tree of 2^40 nodes
        e = sym(X)
        for _ in range(40):
            e = div(e, add(e, ONE))
        bad = div(e, add(sym(X), neg(sym(X))))
        start = time.perf_counter()
        with pytest.raises(DivisionByZeroError) as err:
            eval_exact(bad, {X: Fraction(1)})
        assert time.perf_counter() - start < 0.5
        assert err.value.subexpr is bad

    def test_messages_of_small_expressions(self):
        with pytest.raises(DivisionByZeroError) as err:
            eval_exact(div(sym(X), add(sym(Y), ONE)), {X: 1, Y: -1})
        assert str(err.value) == "division by zero in x/(y + 1)"
        with pytest.raises(TranscendentalNodeError) as err:
            eval_exact(ln(sym(X)), {X: 1})
        assert str(err.value) == "transcendental node ln(x) not supported here"


def constants(e):
    stack, found = [e], []
    while stack:
        node = stack.pop()
        if isinstance(node, Const):
            found.append(node)
        stack.extend(children(node))
    return found


class TestConstantFolding:
    def test_folded_constants_are_fractions(self):
        half = Const(Fraction(1, 2))
        cases = [
            add(),
            mul(),
            add(half, neg(half)),
            add(half, half, sym(X)),
            mul(Const(Fraction(2)), half),
            mul(Neg(ONE), ONE),
            mul(neg(half), Const(Fraction(-2)), sym(X)),
            mul(ONE, ONE, Const(Fraction(3))),
            mul(Neg(sym(X)), ONE),
        ]
        rng = random.Random(61)
        for _ in range(200):
            e = random_expr(rng, depth=4, allow_ln=True)
            cases += [e] + [diff(e, v) for v in GEN_SYMBOLS]
        for e in cases:
            for c in constants(e):
                assert type(c.value) is Fraction
        assert [to_str(e) for e in cases[:9]] == [
            "0", "1", "0", "x + 1", "1", "-1", "x", "3", "-x"
        ]

    def test_printed_corpus_unchanged(self):
        # the print/parse round-trip corpus and its derivatives, as printed
        # before constants were folded over int accumulators
        rng = random.Random(19)
        lines = []
        for _ in range(400):
            e = random_expr(rng, depth=4, allow_ln=True)
            lines.append(to_str(e))
            lines.extend(to_str(diff(e, v)) for v in GEN_SYMBOLS)
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e1da1308cf3a0a2ed0544424b8877fd65f3e5ea56d8e61fa363643f4c576e837"

    def test_minus_one_folds_as_a_sign(self):
        # mul and neg read the interned -1 as a sign: the nodes are the ones
        # that folding its Fraction value gives
        minus_one, x, y = Const(Fraction(-1)), sym(X), sym(Y)
        assert neg(ONE) is minus_one and neg(minus_one) is ONE
        assert mul(minus_one, x) is neg(x) is Neg(x)
        assert mul(minus_one, minus_one, x) is x
        assert mul(minus_one, Neg(x), y) is Mul((x, y))
        assert mul(Const(Fraction(2)), minus_one, x) is Neg(Mul((Const(Fraction(2)), x)))
        assert mul(minus_one, Const(Fraction(-1, 2))) is Const(Fraction(1, 2))
        assert mul(minus_one) is minus_one and mul(minus_one, ONE, minus_one) is ONE
        assert type(mul(minus_one, minus_one).value) is Fraction


class TestDiffMemo:
    def test_shared_dag_differentiates_in_linear_work(self):
        # d/dx x/(1 + k x) = 1/(1 + k x)^2; without the memo the 2^40-node
        # tree would be walked once per path
        e = sym(X)
        for _ in range(40):
            e = div(e, add(e, ONE))
        d = diff(e, X)
        assert eval_exact(d, {X: Fraction(1)}) == Fraction(1, 41**2)
        assert eval_exact(d, {X: Fraction(3)}) == Fraction(1, 121**2)

    def test_shared_subtree_derivative_is_one_object(self):
        a = pow_int(add(sym(X), ONE), 3)
        d = diff(add(mul(a, sym(Y)), mul(a, sym(Z))), X)
        first, second = d.terms
        shared = [f for f in first.factors if any(f is g for g in second.factors)]
        assert any(isinstance(f, PowInt) for f in shared)

    def test_memo_matches_structure_of_unshared_copy(self):
        rng = random.Random(47)
        table = {s.name: s for s in GEN_SYMBOLS}
        for _ in range(100):
            a = random_expr(rng, depth=3, allow_ln=True)
            shared = add(mul(a, sym(Y)), a)
            unshared = add(mul(a, sym(Y)), parse_expr(to_str(a), table))
            v = rng.choice(GEN_SYMBOLS)
            assert diff(shared, v) == diff(unshared, v)

    def test_agrees_with_sympy_after_normalization(self):
        sympy = pytest.importorskip("sympy")
        names = {s.name: sympy.Symbol(s.name) for s in GEN_SYMBOLS}

        def to_sympy(text):
            return sympy.sympify(text.replace("^", "**"), locals=names)

        rng = random.Random(53)
        for _ in range(60):
            e = random_expr(rng, depth=3)
            v = rng.choice(GEN_SYMBOLS)
            form = normalize_rational(diff(e, v))
            ours = poly_to_sympy(form.num) / poly_to_sympy(form.den)
            theirs = sympy.diff(to_sympy(to_str(e)), names[v.name])
            assert sympy.cancel(ours - theirs) == 0


def _unpruned_diff(e, v, memo):
    """Reference derivative: every subtree walked, memoized by node identity."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Const):
        d = Const(Fraction(0))
    elif isinstance(e, Sym):
        d = ONE if e.symbol == v else Const(Fraction(0))
    elif isinstance(e, Add):
        d = add(*[_unpruned_diff(t, v, memo) for t in e.terms])
    elif isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = _unpruned_diff(f, v, memo)
            if isinstance(df, Const) and df.value == 0:
                continue
            terms.append(mul(*e.factors[:i], df, *e.factors[i + 1 :]))
        d = add(*terms)
    elif isinstance(e, Neg):
        d = neg(_unpruned_diff(e.arg, v, memo))
    elif isinstance(e, Div):
        dn, dd = _unpruned_diff(e.num, v, memo), _unpruned_diff(e.den, v, memo)
        if isinstance(dd, Const) and dd.value == 0:
            d = div(dn, e.den)
        else:
            d = div(add(mul(dn, e.den), neg(mul(e.num, dd))), pow_int(e.den, 2))
    elif isinstance(e, PowInt):
        d = mul(
            Const(Fraction(e.exponent)),
            pow_int(e.base, e.exponent - 1),
            _unpruned_diff(e.base, v, memo),
        )
    elif isinstance(e, Ln):
        d = div(_unpruned_diff(e.arg, v, memo), e.arg)
    else:
        d = mul(e, _unpruned_diff(e.arg, v, memo))
    memo[id(e)] = (e, d)
    return d


ZERO_CONST = Const(Fraction(0))


def _pruning_expr(rng, depth, pool):
    """Random expression rich in what pruning must get right: parameter-only
    subtrees, quotients by and ln of constant zeros (written raw, behind a
    Neg too), and subtrees shared by identity through ``pool``."""
    if pool and rng.random() < 0.2:
        return rng.choice(pool)
    if depth <= 0 or rng.random() < 0.2:
        r = rng.random()
        if r < 0.15:
            return Const(Fraction(rng.randint(-1, 1)))
        return sym(rng.choice((A, B) if r < 0.55 else (X, Y, Z)))

    def sub():
        return _pruning_expr(rng, depth - 1, pool)

    kind = rng.randrange(10)
    if kind == 0:
        e = add(sub(), sub(), sub())
    elif kind == 1:
        e = mul(sub(), sub())
    elif kind == 2:
        e = neg(sub())
    elif kind == 3:
        e = div(sub(), sub())
    elif kind == 4:
        e = Div(sub(), rng.choice((ZERO_CONST, Neg(ZERO_CONST), Neg(Neg(ZERO_CONST)))))
    elif kind == 5:
        e = pow_int(sub(), rng.choice((-2, 2, 3)))
    elif kind == 6:
        e = ln(sub())
    elif kind == 7:
        e = Ln(rng.choice((ZERO_CONST, Neg(ZERO_CONST), Const(Fraction(-2)))))
    elif kind == 8:
        e = exp(sub())
    else:
        e = mul(sub(), add(sub(), sym(rng.choice((A, B)))))
    pool.append(e)
    return e


def _assert_same_derivative(pruned, reference):
    assert to_str(pruned) == to_str(reference)
    assert pruned == reference


def _reference_facts(e, memo):
    """Reference node facts: a plain recursive walk, memoized by identity."""
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    symbols, flags = frozenset(), 0
    if isinstance(e, Sym):
        symbols = frozenset({e.symbol})
    elif not isinstance(e, Const):
        if isinstance(e, Add):
            kids = e.terms
        elif isinstance(e, Mul):
            kids = e.factors
        elif isinstance(e, Div):
            kids = (e.num, e.den)
        elif isinstance(e, PowInt):
            kids = (e.base,)
        else:
            kids = (e.arg,)
        for k in kids:
            k_symbols, k_flags = _reference_facts(k, memo)
            symbols, flags = symbols | k_symbols, flags | k_flags
        zeros = (ZERO_CONST, Neg(ZERO_CONST))
        if isinstance(e, Div) and e.den in zeros or isinstance(e, Ln) and e.arg in zeros:
            flags |= odeobs.expr._POLE
        if isinstance(e, (Ln, Exp)):
            flags |= odeobs.expr._LN_EXP
    memo[id(e)] = (e, (symbols, flags))
    return symbols, flags


def _nodes_with_reference_facts(root):
    memo = {}
    _reference_facts(root, memo)
    return memo.values()


def _assert_facts_written(root):
    """Every node of ``root`` holds the reference facts, read off its slots."""
    for node, facts in _nodes_with_reference_facts(root):
        assert (node._symbols, node._flags) == facts, node


class TestPrunedDiff:
    def test_matches_the_unpruned_walk_on_random_expressions(self):
        rng = random.Random(71)
        printed = set()
        for _ in range(1500):
            pool = []
            e = _pruning_expr(rng, rng.randint(1, 4), pool)
            for v in GEN_SYMBOLS:
                reference = _unpruned_diff(e, v, {})
                _assert_same_derivative(diff(e, v), reference)
                printed.add(to_str(reference))
        # the cases that must not be pruned to 0 did occur
        assert any("0/0" in text for text in printed)

    def test_shared_memos_match_the_unpruned_walk(self):
        # one memo per variable for a whole family of roots built over shared
        # subtrees, as an embedding keeps them
        rng = random.Random(73)
        for _ in range(150):
            pool = []
            roots = [_pruning_expr(rng, 3, pool) for _ in range(4)]
            memos = {v: {} for v in GEN_SYMBOLS}
            for e in roots:
                for v in GEN_SYMBOLS:
                    reference = _unpruned_diff(e, v, {})
                    _assert_same_derivative(diff(e, v, memos[v]), reference)
                    _assert_same_derivative(diff(e, v), reference)

    def test_constant_zero_denominators_keep_their_zero_over_zero(self):
        x = sym(X)
        cases = {
            div(sym(A), ZERO_CONST): "0/0",
            Div(sym(A), Neg(ZERO_CONST)): "-0/0",
            Div(sym(A), Neg(Neg(ZERO_CONST))): "0",
            Ln(ZERO_CONST): "0/0",
            Ln(Neg(ZERO_CONST)): "-0/0",
            mul(sym(B), div(sym(A), ZERO_CONST)): "b*(0/0)",
            add(x, Ln(ZERO_CONST)): "0/0 + 1",
            mul(sym(A), sym(B)): "0",
        }
        for e, text in cases.items():
            assert to_str(diff(e, X)) == text == to_str(_unpruned_diff(e, X, {}))

    def test_node_symbols_and_pole_flag(self):
        def pole(e):
            return bool(e._flags & odeobs.expr._POLE)

        cases = [
            (mul(sym(X), sym(A)), {X, A}, False),
            (add(sym(Y), mul(sym(X), sym(B))), {X, Y, B}, False),
            (mul(sym(A), Const(Fraction(3))), {A}, False),
            (mul(sym(A), div(sym(B), ZERO_CONST)), {A, B}, True),
            (add(sym(X), Ln(ZERO_CONST)), {X}, True),
        ]
        for e, symbols, has_pole in cases:
            assert free_symbols(e) == symbols
            assert pole(e) is has_pole
            # a pole is differentiated for a variable it does not mention
            assert (diff(e, Y) == ZERO_CONST) is (Y not in symbols and not has_pole)
        assert [has_ln_exp(e) for e, _, _ in cases] == [False] * 4 + [True]

    def test_node_facts_of_a_deep_tree_need_no_recursion(self):
        # a 5,000-level tree, whose root's facts are read and pruned at once
        def deep(v, w):
            e = sym(X)
            for _ in range(5000):
                e = add(mul(e, sym(v)), sym(w))
            return e

        assert free_symbols(deep(A, B)) == {X, A, B}
        e = deep(B, A)
        assert diff(e, Y) == ZERO_CONST
        assert free_symbols(e) == {X, A, B}

    def test_node_facts_match_the_reference_walk(self):
        rng = random.Random(79)
        trees = []
        for _ in range(500):
            trees.append(_pruning_expr(rng, rng.randint(1, 4), []))
            trees.append(random_expr(rng, depth=4, allow_ln=True))
        kinds = {type(node) for tree in trees for node, _ in _nodes_with_reference_facts(tree)}
        assert {Ln, Exp, Div} <= kinds
        assert any(tree._flags & odeobs.expr._POLE for tree in trees)
        for tree in trees:
            _assert_facts_written(tree)
            assert copy.copy(tree) is tree and copy.deepcopy(tree) is tree
        # unpickled after the originals died, so built anew from the pickle
        data = pickle.dumps(trees)
        alive = [weakref.ref(tree) for tree in trees]
        del trees
        gc.collect()
        assert any(ref() is None for ref in alive)
        for tree in pickle.loads(data):
            _assert_facts_written(tree)

    def test_parameter_only_subtrees_are_not_walked(self):
        # a parameter-only factor is not differentiated: only x and the
        # product mentioning it enter the memo
        params = sym(A)
        for _ in range(60):
            params = mul(params, add(params, sym(B)))
        e = mul(sym(X), params)
        memo = {}
        assert diff(e, X, memo) == params
        assert sorted(type(node).__name__ for node in memo) == ["Mul", "Sym"]

    def test_every_report_jacobian_matches_the_unpruned_walk(
        self, monkeypatch, sir, mm, toy, lv
    ):
        recorded = []
        original = odeobs.embedding.jacobian

        def recording(embedding, sys):
            jac = original(embedding, sys)
            recorded.append((embedding, jac))
            return jac

        monkeypatch.setattr(odeobs.embedding, "jacobian", recording)
        models = [sir, mm, toy, lv, parse_model(chain(6)), parse_model(mm_tail(2))]
        for sys in models:
            before = len(recorded)
            build_report(sys, seed=0)
            assert len(recorded) > before
        for embedding, jac in recorded:
            k = embedding.order
            for o in range(embedding.n_outputs):
                for d in range(k + 1):
                    component = embedding.component(o, d)
                    row = jac.entries[o * (k + 1) + d]
                    for s, entry in zip(jac.states, row):
                        _assert_same_derivative(entry, _unpruned_diff(component, s, {}))
                        # the node facts of every compiled entry, last rows included
                        _assert_facts_written(entry)
