"""Exact symbolic expressions over rationals, state variables, and parameters.

The expression language is deliberately small: rational functions of the
declared symbols, extended with ln and exp.  Everything else (general powers,
trig, piecewise) is rejected at parse time.  Keeping the language rational
makes zero-testing and rank computations exact; ln/exp exist only because
logarithmic first integrals occur in practice, and their gradients fall back
into the rational subset.

Grammar accepted by :func:`parse_expr` (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | atom ('^' integer)?
    atom    := number | identifier | identifier '(' expr ')' | '(' expr ')'

``-`` is left-associative, ``^`` binds tighter than unary minus, implicit
multiplication is not allowed, and the only recognized functions are ``ln``
and ``exp``.  Numbers are decimal integers; fractions are written ``p/q``
and fold to a single rational constant.  At most :data:`MAX_NESTING`
parentheses (those of ``ln(``/``exp(`` included), unary minus signs and
``/`` signs of a term's left-associative division chain may be open at
once; deeper input is a syntax error, not a recursion failure.

Construction goes through the smart constructors (:func:`add`, :func:`mul`,
...), which fold constants and remove neutral elements but perform no other
rewriting.  Semantic comparisons belong to :mod:`odeobs.poly`.

Expression DAGs are lowered to code in one way, with two consumers: a
structurally value-numbered instruction list in tree-walk order, which
:class:`ExactProgram` runs over int/Fraction with one register per value
and :class:`FloatPrinter` prints as Python float source.  ln/exp are lowered
with their arguments; one check, placed where the walk meets the first of
them, stops an exact run there.  The instruction format is private to this
module.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

# Exact arithmetic substrate: always lowest terms, positive denominator.
Rational = Fraction

ExprLike = Union["Expr", int, Fraction]

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

MAX_NESTING = 100  # open parentheses (calls included), unary minus and "/" signs


class ExprError(Exception):
    """Base class for expression-level failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NonIntegerExponentError(ExprSyntaxError):
    def __init__(self, position: int):
        super().__init__("exponent must be an integer", position)


class UnknownSymbolError(ExprError):
    def __init__(self, name: str):
        super().__init__(f"unknown symbol {name!r}")
        self.name = name


class _NodeError(ExprError):
    """An error at a recorded subexpression, printed only when asked for.

    Printing walks the tree, which takes time exponential in the depth of a
    DAG that shares subtrees, and the rank sampler raises one of these at
    every point it rejects.
    """

    def __init__(self, subexpr: "Expr"):
        super().__init__(subexpr)
        self.subexpr = subexpr


class DivisionByZeroError(_NodeError):
    """Division by zero while evaluating, at the recorded subexpression."""

    def __str__(self) -> str:
        return f"division by zero in {self.subexpr}"


class TranscendentalNodeError(_NodeError):
    """An operation restricted to the rational subset met ln/exp."""

    def __str__(self) -> str:
        return f"transcendental node {self.subexpr} not supported here"


class DomainError(ExprError):
    """Float evaluation outside a function's domain (ln of non-positive)."""


@dataclass(frozen=True, slots=True)
class Symbol:
    """A named state variable or parameter."""

    name: str
    kind: str  # "state" | "parameter"

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid symbol name {self.name!r}")
        if self.kind not in ("state", "parameter"):
            raise ValueError(f"invalid symbol kind {self.kind!r}")

    @property
    def sort_key(self) -> tuple:
        # states before parameters, then by name; deterministic everywhere
        return (0 if self.kind == "state" else 1, self.name)

    def __str__(self) -> str:
        return self.name


class Expr:
    """Immutable expression node; subclasses are the node kinds."""

    __slots__ = ()

    def __add__(self, other: ExprLike) -> "Expr":
        return add(self, as_expr(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return add(as_expr(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return add(self, neg(as_expr(other)))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return add(as_expr(other), neg(self))

    def __mul__(self, other: ExprLike) -> "Expr":
        return mul(self, as_expr(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return mul(as_expr(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return div(self, as_expr(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return div(as_expr(other), self)

    def __pow__(self, exponent: int) -> "Expr":
        return pow_int(self, exponent)

    def __neg__(self) -> "Expr":
        return neg(self)

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: Fraction

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Sym(Expr):
    symbol: Symbol

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Add(Expr):
    terms: tuple  # >= 2 children, flattened

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    factors: tuple  # >= 2 children, flattened, sign hoisted

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Neg(Expr):
    arg: Expr

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Div(Expr):
    num: Expr
    den: Expr

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class PowInt(Expr):
    base: Expr
    exponent: int  # never 0 or 1

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Ln(Expr):
    arg: Expr

    def __str__(self) -> str:
        return to_str(self)


@dataclass(frozen=True, slots=True)
class Exp(Expr):
    arg: Expr

    def __str__(self) -> str:
        return to_str(self)


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def as_expr(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Const(Fraction(value))
    raise TypeError(f"cannot coerce {value!r} to Expr")


def sym(symbol: Symbol) -> Sym:
    return Sym(symbol)


def add(*terms: ExprLike) -> Expr:
    """Sum with flattening, constant folding, and zero-term removal."""
    flat = []
    c = 0  # a Fraction once a nonzero constant is met
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
        return ZERO
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def mul(*factors: ExprLike) -> Expr:
    """Product with flattening, constant folding, and sign hoisting.

    The net sign of Neg children and negative constants is pulled out front,
    so a Mul node never directly contains a Neg child or a negative constant.
    """
    flat = []
    c = 1  # the int 1 or -1 until a constant other than 1 is met
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
        return ZERO
    core = flat
    if abs(c) != 1:
        core = [Const(abs(c))] + core
    if not core:
        return Const(Fraction(c))
    result = core[0] if len(core) == 1 else Mul(tuple(core))
    return neg(result) if c < 0 else result


def neg(e: ExprLike) -> Expr:
    e = as_expr(e)
    if isinstance(e, Const):
        return Const(-e.value)
    if isinstance(e, Neg):
        return e.arg
    return Neg(e)


def div(num: ExprLike, den: ExprLike) -> Expr:
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
            return neg(num) if sign < 0 else num
    if isinstance(num, Const) and num.value == 0 and not (
        isinstance(den, Const) and den.value == 0
    ):
        return ZERO
    result = Div(num, den)
    return Neg(result) if sign < 0 else result


def pow_int(base: ExprLike, exponent: int) -> Expr:
    base = as_expr(base)
    if not isinstance(exponent, int):
        raise NonIntegerExponentError(0)
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Const) and not (base.value == 0 and exponent < 0):
        return Const(base.value**exponent)
    if isinstance(base, Neg):
        inner = pow_int(base.arg, exponent)
        return inner if exponent % 2 == 0 else neg(inner)
    if isinstance(base, PowInt):
        return pow_int(base.base, base.exponent * exponent)
    return PowInt(base, exponent)


def ln(arg: ExprLike) -> Expr:
    return Ln(as_expr(arg))


def exp(arg: ExprLike) -> Expr:
    return Exp(as_expr(arg))


def children(e: Expr) -> tuple:
    if isinstance(e, Add):
        return e.terms
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Neg):
        return (e.arg,)
    if isinstance(e, Div):
        return (e.num, e.den)
    if isinstance(e, PowInt):
        return (e.base,)
    if isinstance(e, (Ln, Exp)):
        return (e.arg,)
    return ()


def free_symbols(e: Expr) -> frozenset:
    """All symbols occurring structurally in the expression."""
    found = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            found.add(node.symbol)
        else:
            stack.extend(children(node))
    return frozenset(found)


def _const_zero(e: Expr) -> bool:
    """Whether ``div`` reads ``e`` as the denominator constant zero."""
    if isinstance(e, Neg):
        e = e.arg
    return isinstance(e, Const) and e.value == 0


class SupportTable:
    """Which of a fixed tuple of variables each subtree mentions.

    A node's support is an int bitmask over the positions of the variables,
    kept by ``id(node)`` with the node held alive.  A subtree that divides by
    a constant zero or takes ln of one has the mask -1: its derivative with
    respect to anything is a structural ``0/0``, not ``0``, so it counts as
    mentioning every variable.
    """

    __slots__ = ("bits", "masks", "_nodes")

    def __init__(self, variables: Sequence[Symbol]):
        self.bits = {v: 1 << i for i, v in enumerate(variables)}
        self.masks: dict = {}  # id(node) -> support
        self._nodes: list = []  # keeps every tabled node, so its id stays taken

    def mask(self, e: Expr) -> int:
        """The support of ``e``, tabling every subtree of ``e`` not seen yet."""
        masks = self.masks
        found = masks.get(id(e))
        if found is not None:
            return found
        # post-order without recursion: a node stays on the stack until all
        # of its children are tabled
        stack = [e]
        while stack:
            node = stack[-1]
            if id(node) in masks:  # pushed twice, by two parents
                stack.pop()
                continue
            kids = children(node)
            m = 0
            waiting = False
            for k in kids:
                km = masks.get(id(k))
                if km is None:
                    stack.append(k)
                    waiting = True
                else:
                    m |= km
            if waiting:
                continue
            stack.pop()
            if isinstance(node, Sym):
                m = self.bits.get(node.symbol, 0)
            elif isinstance(node, Div) and _const_zero(node.den) or (
                isinstance(node, Ln) and _const_zero(node.arg)
            ):
                m = -1
            elif not kids and not isinstance(node, Const):
                raise TypeError(f"unhandled node {node!r}")
            masks[id(node)] = m
            self._nodes.append(node)
        return masks[id(e)]


def diff(
    e: Expr,
    v: Symbol,
    memo: Optional[dict] = None,
    support: Optional[SupportTable] = None,
) -> Expr:
    """Partial derivative with respect to ``v``, structurally simplified.

    Only subtrees that mention ``v`` are differentiated: a :class:`SupportTable`
    says which those are, and every other subtree has derivative ``ZERO`` at
    once, as the full walk would find (a constant-zero quotient or ln, whose
    derivative prints ``0/0``, is never skipped).  Each node object is
    differentiated once: subtrees shared by identity are looked up in a memo,
    so their derivatives are shared too.  The memo and the table last one
    call, or as long as the caller keeps those passed as ``memo`` and
    ``support``; one memo serves one variable, one table any of its
    variables, and both keep every node they have seen alive.
    """
    if support is None:
        support = SupportTable((v,))
    support.mask(e)
    return _diff(e, v, {} if memo is None else memo, support.bits[v], support.masks)


def _diff(e: Expr, v: Symbol, memo: dict, bit: int, masks: dict) -> Expr:
    # every subtree of the root is in ``masks``; one without v has derivative 0
    if not masks[id(e)] & bit:
        return ZERO
    # The memo holds the node next to its derivative, so the id stays taken.
    hit = memo.get(id(e))
    if hit is not None:
        return hit[1]
    if isinstance(e, Sym):
        d = ONE  # its support holds v, so it is v
    elif isinstance(e, Add):
        d = add(*[_diff(t, v, memo, bit, masks) for t in e.terms])
    elif isinstance(e, Mul):
        terms = []
        for i, f in enumerate(e.factors):
            df = _diff(f, v, memo, bit, masks)
            if isinstance(df, Const) and df.value == 0:
                continue
            terms.append(mul(*e.factors[:i], df, *e.factors[i + 1 :]))
        d = add(*terms)
    elif isinstance(e, Neg):
        d = neg(_diff(e.arg, v, memo, bit, masks))
    elif isinstance(e, Div):
        dn, dd = _diff(e.num, v, memo, bit, masks), _diff(e.den, v, memo, bit, masks)
        if isinstance(dd, Const) and dd.value == 0:
            d = div(dn, e.den)
        else:
            d = div(add(mul(dn, e.den), neg(mul(e.num, dd))), pow_int(e.den, 2))
    elif isinstance(e, PowInt):
        d = mul(
            Const(Fraction(e.exponent)),
            pow_int(e.base, e.exponent - 1),
            _diff(e.base, v, memo, bit, masks),
        )
    elif isinstance(e, Ln):
        d = div(_diff(e.arg, v, memo, bit, masks), e.arg)
    elif isinstance(e, Exp):
        d = mul(e, _diff(e.arg, v, memo, bit, masks))
    else:
        raise TypeError(f"unhandled node {e!r}")
    memo[id(e)] = (e, d)
    return d


def substitute(e: Expr, bindings: Mapping[Symbol, Expr]) -> Expr:
    """Simultaneous substitution; replacement expressions are not re-visited."""
    if not bindings:
        return e
    if isinstance(e, (Const,)):
        return e
    if isinstance(e, Sym):
        return bindings.get(e.symbol, e)
    if isinstance(e, Add):
        return add(*[substitute(t, bindings) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[substitute(f, bindings) for f in e.factors])
    if isinstance(e, Neg):
        return neg(substitute(e.arg, bindings))
    if isinstance(e, Div):
        return div(substitute(e.num, bindings), substitute(e.den, bindings))
    if isinstance(e, PowInt):
        return pow_int(substitute(e.base, bindings), e.exponent)
    if isinstance(e, Ln):
        return ln(substitute(e.arg, bindings))
    if isinstance(e, Exp):
        return exp(substitute(e.arg, bindings))
    raise TypeError(f"unhandled node {e!r}")


# ---------------------------------------------------------------------------
# lowering: expression DAGs to one straight-line instruction list, run over
# int/Fraction by ExactProgram and printed as float source by FloatPrinter

# Opcodes.  _NONZERO (a quotient's zero check) and _TRANSCENDENTAL (the one
# ln/exp check) are checks, not values: no instruction reads them.
_ADD, _MUL, _NEG, _DIV, _NONZERO, _POW, _SYM, _CONST, _LN, _EXP, _TRANSCENDENTAL = range(11)


def _exact(value):
    """``value`` as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class _Lowering:
    """Walks expression trees once, emitting one instruction per distinct node.

    An instruction is ``(op, value ids of the arguments, payload)``, and its
    value id is its index in ``instrs``.  Instructions follow a tree walk:
    children in order, and a quotient's denominator, then its zero check,
    then its numerator.  Each node object is lowered once (by identity), and
    structurally equal subtrees share one instruction (keyed by operation and
    argument values).  The first ln/exp met is preceded by the one
    ``_TRANSCENDENTAL`` check, placed before its argument.

    A class rather than nested functions: a recursive closure is a reference
    cycle, which would keep the tables alive until the cyclic garbage
    collector ran.
    """

    def __init__(self):
        self.instrs: list = []
        self.by_key: dict = {}  # (op, key, argument value ids) -> value id
        self.by_id: dict = {}  # id(node) -> value id; the caller keeps the nodes alive
        self.symbols: set = set()
        self.rational = True  # no ln/exp node met

    def instr(self, op, key, args, payload) -> int:
        full_key = (op, key, args)
        value = self.by_key.get(full_key)
        if value is None:
            value = self.by_key[full_key] = len(self.instrs)
            self.instrs.append((op, args, payload))
        return value

    def emit(self, e: Expr) -> int:
        value = self.by_id.get(id(e))
        if value is not None:
            return value
        if isinstance(e, Add):
            value = self.instr(_ADD, None, tuple(self.emit(t) for t in e.terms), None)
        elif isinstance(e, Mul):
            value = self.instr(_MUL, None, tuple(self.emit(f) for f in e.factors), None)
        elif isinstance(e, Sym):
            self.symbols.add(e.symbol)
            value = self.instr(_SYM, e.symbol, (), e.symbol)
        elif isinstance(e, Const):
            value = self.instr(_CONST, e.value, (), _exact(e.value))
        elif isinstance(e, Neg):
            value = self.instr(_NEG, None, (self.emit(e.arg),), None)
        elif isinstance(e, Div):
            den = self.emit(e.den)
            # one check per denominator value: the first raises, if any does
            self.instr(_NONZERO, None, (den,), e)
            value = self.instr(_DIV, None, (den, self.emit(e.num)), None)
        elif isinstance(e, PowInt):
            value = self.instr(_POW, e.exponent, (self.emit(e.base),), e)
        elif isinstance(e, (Ln, Exp)):
            if self.rational:
                self.rational = False
                self.instr(_TRANSCENDENTAL, None, (), e)
            op = _LN if isinstance(e, Ln) else _EXP
            value = self.instr(op, None, (self.emit(e.arg),), None)
        else:
            raise TypeError(f"unhandled node {e!r}")
        self.by_id[id(e)] = value
        return value


class ExactProgram:
    """A matrix of expressions compiled to straight-line exact code.

    Each structurally distinct subexpression is one instruction, so a run
    evaluates it once however often the trees repeat it, into a register of
    its own.  Integral values are Python ints; a value becomes a Fraction
    only at a quotient that does not divide or a negative power, or through
    a non-integral constant.
    """

    __slots__ = ("symbols", "rational", "_code", "_outputs")

    def __init__(self, symbols, rational, code, outputs):
        self.symbols: frozenset = symbols  # every symbol the matrix mentions
        self.rational: bool = rational  # no ln/exp node
        self._code: tuple = code
        self._outputs: tuple = outputs

    def run(self, point: Mapping[Symbol, Fraction]) -> list:
        """Exact values of the entries at ``point``, as a list of rows of int
        and Fraction.

        Raises :class:`DivisionByZeroError` at the node where a tree walk of
        the entries (row by row, each denominator checked before its
        numerator is evaluated) would, and :class:`TranscendentalNodeError`
        at the first ln/exp node of that walk, before its argument runs.
        """
        regs: list = []  # one register per instruction; checks store None
        store = regs.append
        for op, args, payload in self._code:
            if op == _MUL:
                value = regs[args[0]]
                for a in args[1:]:
                    value *= regs[a]
            elif op == _ADD:
                value = regs[args[0]]
                for a in args[1:]:
                    value += regs[a]
            elif op == _SYM:
                try:
                    value = _exact(point[payload])
                except KeyError:
                    raise UnknownSymbolError(payload.name) from None
            elif op == _CONST:
                value = payload
            elif op == _NEG:
                value = -regs[args[0]]
            elif op == _NONZERO:
                if regs[args[0]] == 0:
                    raise DivisionByZeroError(payload)
                value = None
            elif op == _DIV:
                num, den = regs[args[1]], regs[args[0]]
                if type(num) is int and type(den) is int and num % den == 0:
                    value = num // den
                else:
                    value = _exact(Fraction(num, den))
            elif op == _POW:
                base = regs[args[0]]
                exponent = payload.exponent
                if exponent >= 0:
                    value = base**exponent
                elif base == 0:
                    raise DivisionByZeroError(payload)
                else:
                    value = _exact(Fraction(1, base**-exponent))
            else:  # _TRANSCENDENTAL: it precedes every _LN and _EXP
                raise TranscendentalNodeError(payload)
            store(value)
        return [[regs[v] for v in row] for row in self._outputs]


def compile_exact(rows: Sequence[Sequence[Expr]]) -> ExactProgram:
    """Compile a matrix (a sequence of rows of Expr) to an :class:`ExactProgram`.

    The program is the lowering of the entries, row by row, run as it stands.
    """
    lowering = _Lowering()
    outputs = tuple(tuple(lowering.emit(entry) for entry in row) for row in rows)
    return ExactProgram(
        frozenset(lowering.symbols), lowering.rational, tuple(lowering.instrs), outputs
    )


# precedence of the printed Python operators, loosest first
_SUM, _PRODUCT, _UNARY, _POWER, _ATOM = range(5)


def _literal(value: float) -> tuple:
    text = repr(value)  # round-trips exactly; inf and nan are names in the namespace
    return text, _UNARY if text.startswith("-") else _ATOM


class FloatPrinter:
    """Expressions printed as straight-line Python source over float locals.

    The expressions are lowered once, as for :func:`compile_exact`, and
    :meth:`emit` prints them as often as asked, each time over other state
    locals.  Operations keep the order in which the expression is written:
    terms and factors left to right, a quotient's numerator before its
    denominator.  Parentheses appear only where Python's precedence needs
    them (its parser refuses more than 200 nested ones), and the compiled
    operations are those of the fully parenthesized tree.  Within one
    :meth:`emit` call, a composite value that the lowering's instructions and
    the expressions read more than once (zero checks do not read) is
    computed at its first use, bound there with ``:=``, and read by name
    after that.  The evaluation order is unchanged, so every value is the
    one a plain tree walk gives, bit for bit, and so is the first exception
    raised.  A ``Neg`` term of a sum is printed as a subtraction: in IEEE
    arithmetic ``a + (-b)`` is exactly ``a - b``.  Parameters are inlined as
    float literals.
    """

    def __init__(self, exprs: Sequence[Expr], params: Mapping[Symbol, float]):
        lowering = _Lowering()
        self.outputs = [lowering.emit(e) for e in exprs]
        self.instrs = lowering.instrs
        uses = Counter(self.outputs)
        for op, args, _ in self.instrs:
            if op != _NONZERO:
                uses.update(args)
        self.shared = {v for v, n in uses.items() if n > 1}
        self.params = params
        self.n_bound = 0
        self.env: Mapping[Symbol, str] = {}
        self.names: dict = {}  # value id -> local name, once bound

    def emit(self, env: Mapping[Symbol, str]) -> list:
        """Source of each expression, with ``env`` naming the state locals."""
        self.env = env
        self.names = {}
        return [self._emit(v, _SUM) for v in self.outputs]

    def _emit(self, v: int, least: int) -> str:
        """Source of value ``v``, parenthesized unless it binds at least as tightly as ``least``."""
        text, precedence = self._printed(v)
        return text if precedence >= least else f"({text})"

    def _printed(self, v: int) -> tuple:
        # two frames per tree level (this and _emit), and no generator frames
        op, args, payload = self.instrs[v]
        if op == _CONST:
            return _literal(float(payload))
        if op == _SYM:
            if payload in self.env:
                return self.env[payload], _ATOM
            if payload in self.params:
                return _literal(float(self.params[payload]))
            raise KeyError(f"unbound symbol {payload.name!r}")
        name = self.names.get(v)
        if name is not None:
            return name, _ATOM
        if op == _ADD:
            parts = [self._emit(args[0], _SUM)]
            for a in args[1:]:
                term_op, term_args, _ = self.instrs[a]
                if term_op == _NEG and a not in self.shared:
                    parts.append(" - " + self._emit(term_args[0], _PRODUCT))
                else:
                    parts.append(" + " + self._emit(a, _PRODUCT))
            text, precedence = "".join(parts), _SUM
        elif op == _MUL:
            parts = [self._emit(args[0], _PRODUCT)]
            for a in args[1:]:
                parts.append(" * " + self._emit(a, _UNARY))
            text, precedence = "".join(parts), _PRODUCT
        elif op == _NEG:
            text, precedence = "-" + self._emit(args[0], _UNARY), _UNARY
        elif op == _DIV:
            den, num = args
            text = f"{self._emit(num, _PRODUCT)} / {self._emit(den, _UNARY)}"
            precedence = _PRODUCT
        elif op == _POW:
            text, precedence = f"{self._emit(args[0], _ATOM)} ** {payload.exponent}", _POWER
        else:
            function = "math.log" if op == _LN else "math.exp"
            text, precedence = f"{function}({self._emit(args[0], _SUM)})", _ATOM
        if v not in self.shared:
            return text, precedence
        name = self.names[v] = f"c{self.n_bound}"
        self.n_bound += 1
        return f"({name} := {text})", _ATOM


def eval_exact(e: Expr, point: Mapping[Symbol, Fraction]) -> Fraction:
    """Exact rational evaluation; rejects ln/exp nodes.  One-entry :func:`compile_exact`."""
    return Fraction(compile_exact(((e,),)).run(point)[0][0])


def eval_float(e: Expr, point: Mapping[Symbol, float]) -> float:
    """IEEE double evaluation; ln requires a positive argument."""
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        try:
            return float(point[e.symbol])
        except KeyError:
            raise UnknownSymbolError(e.symbol.name) from None
    if isinstance(e, Add):
        return math.fsum(eval_float(t, point) for t in e.terms)
    if isinstance(e, Mul):
        total = 1.0
        for f in e.factors:
            total *= eval_float(f, point)
        return total
    if isinstance(e, Neg):
        return -eval_float(e.arg, point)
    if isinstance(e, Div):
        d = eval_float(e.den, point)
        if d == 0.0:
            raise DivisionByZeroError(e)
        return eval_float(e.num, point) / d
    if isinstance(e, PowInt):
        b = eval_float(e.base, point)
        if b == 0.0 and e.exponent < 0:
            raise DivisionByZeroError(e)
        return b**e.exponent
    if isinstance(e, Ln):
        a = eval_float(e.arg, point)
        if a <= 0.0:
            raise DomainError(f"ln of non-positive value {a}")
        return math.log(a)
    if isinstance(e, Exp):
        return math.exp(eval_float(e.arg, point))
    raise TypeError(f"unhandled node {e!r}")


# ---------------------------------------------------------------------------
# printing


def _paren(s: str) -> str:
    return "(" + s + ")"


def to_str(e: Expr) -> str:
    """Render an expression so that parsing the result rebuilds it exactly."""
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, Sym):
        return e.symbol.name
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            if isinstance(t, Neg):
                body = to_str(t.arg)
                if isinstance(t.arg, Add):
                    body = _paren(body)
                parts.append(("-" if i == 0 else " - ") + body)
            elif isinstance(t, Const) and t.value < 0:
                parts.append(("-" if i == 0 else " - ") + str(-t.value))
            else:
                parts.append(("" if i == 0 else " + ") + to_str(t))
        return "".join(parts)
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            s = to_str(f)
            if isinstance(f, (Add, Neg)) or (isinstance(f, Div) and i > 0):
                s = _paren(s)
            parts.append(s)
        return "*".join(parts)
    if isinstance(e, Neg):
        body = to_str(e.arg)
        if isinstance(e.arg, Add):
            body = _paren(body)
        return "-" + body
    if isinstance(e, Div):
        num = to_str(e.num)
        if isinstance(e.num, Add) or (isinstance(e.num, Const) and e.num.value < 0):
            num = _paren(num)
        den = to_str(e.den)
        if isinstance(e.den, (Add, Mul, Div, Neg)) or (
            isinstance(e.den, Const) and (e.den.value < 0 or e.den.value.denominator != 1)
        ):
            den = _paren(den)
        return num + "/" + den
    if isinstance(e, PowInt):
        base = to_str(e.base)
        simple = isinstance(e.base, (Sym, Ln, Exp)) or (
            isinstance(e.base, Const)
            and e.base.value >= 0
            and e.base.value.denominator == 1
        )
        if not simple:
            base = _paren(base)
        return f"{base}^{e.exponent}"
    if isinstance(e, Ln):
        return "ln" + _paren(to_str(e.arg))
    if isinstance(e, Exp):
        return "exp" + _paren(to_str(e.arg))
    raise TypeError(f"unhandled node {e!r}")


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<float>\d+\.\d*|\.\d+)"
    r"|(?P<int>\d+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, tokens: list, symbols: Mapping[str, Symbol]):
        self.tokens = tokens
        self.i = 0
        self.symbols = symbols
        self.depth = 0  # parentheses and unary minus signs open at the cursor

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.advance()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)

    def enter(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            e = add(e, rhs) if op == "+" else add(e, neg(rhs))
        return e

    def term(self) -> Expr:
        # each '/' nests the quotient so far one level deeper in the tree
        e = self.factor()
        divisions = 0
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            if tok.text == "/":
                self.enter(tok)
                divisions += 1
            rhs = self.factor()
            e = mul(e, rhs) if tok.text == "*" else div(e, rhs)
        self.depth -= divisions
        return e

    def factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.enter(self.advance())
            e = neg(self.factor())
            self.depth -= 1
            return e
        a = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            return pow_int(a, self.exponent())
        return a

    def exponent(self) -> int:
        sign = 1
        tok = self.advance()
        if tok.kind == "op" and tok.text == "-":
            sign = -1
            tok = self.advance()
        if tok.kind == "float":
            raise NonIntegerExponentError(tok.pos)
        if tok.kind != "int":
            raise ExprSyntaxError("expected integer exponent", tok.pos)
        return sign * int(tok.text)

    def atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "op" and tok.text == "(":
            self.enter(tok)
            e = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return e
        if tok.kind == "int":
            return Const(Fraction(int(tok.text)))
        if tok.kind == "float":
            raise ExprSyntaxError(
                "decimal literals are not supported; write a fraction p/q", tok.pos
            )
        if tok.kind == "name":
            nxt = self.peek()
            if tok.text in ("ln", "exp") and nxt.kind == "op" and nxt.text == "(":
                self.enter(self.advance())
                arg = self.expr()
                self.expect_op(")")
                self.depth -= 1
                return ln(arg) if tok.text == "ln" else exp(arg)
            if tok.text not in self.symbols:
                raise UnknownSymbolError(tok.text)
            return Sym(self.symbols[tok.text])
        raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)


def parse_expr(text: str, symbols) -> Expr:
    """Parse ``text`` against a symbol table.

    ``symbols`` is either a mapping from name to :class:`Symbol` or an
    iterable of symbols.  Every identifier in the text must be declared.
    """
    if not isinstance(symbols, Mapping):
        symbols = {s.name: s for s in symbols}
    parser = _Parser(_tokenize(text), symbols)
    e = parser.expr()
    tail = parser.peek()
    if tail.kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {tail.text!r}", tail.pos)
    return e
