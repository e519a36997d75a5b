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
once; deeper input is a syntax error, not a recursion failure.  The text
is split into token strings by one regular-expression scan, and a
character that starts no token is an error before any parsing; the
descent reads the strings, and a token's position in the text is found
only when an error names it.

Construction goes through the smart constructors (:func:`add`, :func:`mul`,
...), which fold constants and remove neutral elements but perform no other
rewriting.  A constant 0 or 1 is always the interned :data:`ZERO` or
:data:`ONE`, so they test for it by identity, not by value; :func:`mul`
and :func:`neg` read the interned -1 as a sign, with no Fraction
arithmetic.  Semantic comparisons belong to :mod:`odeobs.poly`.

Nodes and symbols are hash-consed: each class interns its instances in one
table, keyed by the class and the fields (children and symbols by identity,
a constant by its numerator and denominator, a symbol by name and kind).
Building one that is structurally equal to a live one, by a constructor,
the parser, a copy or an unpickling, returns the live one.  So structural
equality is identity: nodes and symbols compare and hash by identity, and
every memo keyed on a node sees a repeated subtree once.  The table refers
to its instances weakly, and an entry leaves with its instance.

Each node also holds two facts about its subtree: the symbols it mentions,
and flags for an ln/exp node and for a quotient or ln of a constant zero.
Its constructor writes them from its children's facts, which a child holds
from its own construction on, so every node has them from birth and no walk
exists to write them.  :func:`free_symbols`, :func:`has_ln_exp`, the
pruning of :func:`diff` and :func:`substitute`, and :func:`compile_exact`
read them.

:func:`diff` builds the derivatives of sums and products straight from
their children, which a constructor left in normal form, without passing
them through :func:`add` and :func:`mul` again; nodes out of normal form
take those general constructors.  Either way the result is the interned
node the constructors give.

Expression DAGs are lowered to code in one way: the DAG's post-order, one
instruction per distinct node after those of its children, which come in
the order :func:`children` gives them.  An instruction is ``(node class,
value ids of the children, payload)``, its value id is its index in the
list, and the payload of a ``Sym`` is its symbol, of a ``Const`` its exact
value (an int when integral), and of every other node the node itself.
:class:`ExactProgram` runs the code over int/Fraction or over floats with
one register per value, :class:`FloatPrinter` prints it as Python float
source, and :func:`odeobs.poly.normalize_rational` runs it over pairs of
polynomials.  :func:`eval_exact` and :func:`eval_float` are one-entry
runs; no evaluator walks the tree.  Every evaluator runs operands before
their operation, so each raises the first error of the post-order: a
numerator's before its denominator's, an ln/exp argument's before the
ln/exp.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

ExprLike = Union["Expr", int, Fraction]

NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")  # an identifier: a symbol or level name

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


# The intern table: one weak entry per live node or symbol.  A key holds the
# node's children, which the node holds anyway, so the table keeps no node
# alive.
_interned: dict = {}

_new_object = object.__new__
_set_field = object.__setattr__


class _Entry(weakref.ref):
    """The intern table's weak reference to an instance, with its key."""

    __slots__ = ("key",)


def _evict(entry: _Entry, table: dict = _interned) -> None:
    # an entry made for the same key after this instance died stays
    if table.get(entry.key) is entry:
        del table[entry.key]


def _enter(cls, key):
    """A new instance of ``cls``, fields not yet set, entered under ``key``."""
    instance = _new_object(cls)
    entry = _Entry(instance, _evict)
    entry.key = key
    _interned[key] = entry
    return instance


# The flags of a node's subtree.  _POLE: it divides by a constant zero or
# takes ln of one, so its derivative with respect to anything is a
# structural ``0/0``, not ``0``.  _LN_EXP: it has an ln or exp node.
_POLE, _LN_EXP = 1, 2

_NO_SYMBOLS: frozenset = frozenset()


def _const_zero(e: "Expr") -> bool:
    """Whether ``div`` reads ``e`` as the denominator constant zero."""
    if isinstance(e, Neg):
        e = e.arg
    return e is ZERO


def _union(nodes) -> tuple:
    """The symbols and flags of ``nodes`` together."""
    symbols, flags = _NO_SYMBOLS, 0
    for n in nodes:
        flags |= n._flags
        if not n._symbols <= symbols:
            # a node's set is reused where it holds all the others
            symbols = n._symbols if symbols <= n._symbols else symbols | n._symbols
    return symbols, flags


# The constructors of the node classes.  Each looks its key up before it
# builds; the lookup is written out, not called, because it runs for every
# node built.  A new node's facts come from ``facts``, its class's rule over
# its fields, before the node is entered.


def _one_field_new(field: str, facts):
    def __new__(cls, value):
        key = (cls, value)
        entry = _interned.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        symbols, flags = facts(value)
        node = _enter(cls, key)
        _set_field(node, field, value)
        _set_field(node, "_symbols", symbols)
        _set_field(node, "_flags", flags)
        return node

    return __new__


def _two_field_new(first: str, second: str, facts):
    def __new__(cls, a, b):
        key = (cls, a, b)
        entry = _interned.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        symbols, flags = facts(a, b)
        node = _enter(cls, key)
        _set_field(node, first, a)
        _set_field(node, second, b)
        _set_field(node, "_symbols", symbols)
        _set_field(node, "_flags", flags)
        return node

    return __new__


class _Interned:
    """Immutable and interned: building one equal to a live instance returns
    the live one, so equality and hashing are identity."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # rebuilt through the constructor, so copies and unpickled instances
        # are the interned ones
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Symbol(_Interned):
    """A named state variable or parameter."""

    __slots__ = ("name", "kind")  # kind: "state" | "parameter"

    def __new__(cls, name: str, kind: str):
        key = (cls, name, kind)
        entry = _interned.get(key)
        if entry is not None:
            symbol = entry()
            if symbol is not None:
                return symbol
        if not NAME_RE.match(name):
            raise ValueError(f"invalid symbol name {name!r}")
        if kind not in ("state", "parameter"):
            raise ValueError(f"invalid symbol kind {kind!r}")
        symbol = _enter(cls, key)
        _set_field(symbol, "name", name)
        _set_field(symbol, "kind", kind)
        return symbol

    @property
    def sort_key(self) -> tuple:
        # states before parameters, then by name; deterministic everywhere
        return (0 if self.kind == "state" else 1, self.name)

    def __str__(self) -> str:
        return self.name


class Expr(_Interned):
    """Immutable, interned expression node; subclasses are the node kinds.

    Besides its fields, a node holds two facts about its subtree, written by
    its constructor from those of its children: the symbols it mentions and
    flags (:data:`_POLE`, :data:`_LN_EXP`).
    """

    __slots__ = ("_symbols", "_flags")

    def __str__(self) -> str:
        return to_str(self)


class Const(Expr):
    __slots__ = ("value",)

    def __new__(cls, value):
        # keyed by numerator and denominator: Fraction's own hash is slow
        if type(value) is not Fraction:
            value = Fraction(value)
        key = (cls, value.numerator, value.denominator)
        entry = _interned.get(key)
        if entry is not None:
            node = entry()
            if node is not None:
                return node
        node = _enter(cls, key)
        _set_field(node, "value", value)
        _set_field(node, "_symbols", _NO_SYMBOLS)
        _set_field(node, "_flags", 0)
        return node


# The facts rules of Div and Ln: a new node's symbols and flags from its
# fields.  Add and Mul take _union; the other classes have theirs inline.


def _quotient_facts(num: Expr, den: Expr) -> tuple:
    symbols, flags = _union((num, den))
    if _const_zero(den):
        flags |= _POLE
    return symbols, flags


def _ln_facts(arg: Expr) -> tuple:
    flags = arg._flags | _LN_EXP
    if _const_zero(arg):
        flags |= _POLE
    return arg._symbols, flags


class Sym(Expr):
    __slots__ = ("symbol",)
    __new__ = _one_field_new("symbol", lambda symbol: (frozenset((symbol,)), 0))


class Add(Expr):
    __slots__ = ("terms",)  # >= 2 children, flattened
    __new__ = _one_field_new("terms", _union)


class Mul(Expr):
    __slots__ = ("factors",)  # >= 2 children, flattened, sign hoisted
    __new__ = _one_field_new("factors", _union)


class Neg(Expr):
    __slots__ = ("arg",)
    __new__ = _one_field_new("arg", lambda arg: (arg._symbols, arg._flags))


class Div(Expr):
    __slots__ = ("num", "den")
    __new__ = _two_field_new("num", "den", _quotient_facts)


class PowInt(Expr):
    __slots__ = ("base", "exponent")  # exponent: an int, never 0 or 1
    __new__ = _two_field_new("base", "exponent", lambda base, exponent: (base._symbols, base._flags))


class Ln(Expr):
    __slots__ = ("arg",)
    __new__ = _one_field_new("arg", _ln_facts)


class Exp(Expr):
    __slots__ = ("arg",)
    __new__ = _one_field_new("arg", lambda arg: (arg._symbols, arg._flags | _LN_EXP))


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))
_MINUS_ONE = Const(Fraction(-1))  # held here, so every Const(-1) is this node


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
    c = ZERO  # the constant term so far
    stack = [t if isinstance(t, Expr) else as_expr(t) for t in reversed(terms)]
    while stack:
        t = stack.pop()
        kind = type(t)
        if kind is Add:
            stack.extend(reversed(t.terms))
        elif kind is Const:
            if c is ZERO:
                c = t
            elif t is not ZERO:
                c = Const(c.value + t.value)
        else:
            flat.append(t)
    if c is not ZERO:
        flat.append(c)
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
    c = 1  # the int 1 or -1 until a constant other than 1 or -1 is met
    stack = [f if isinstance(f, Expr) else as_expr(f) for f in reversed(factors)]
    while stack:
        f = stack.pop()
        kind = type(f)
        if kind is Mul:
            stack.extend(reversed(f.factors))
        elif kind is Neg:
            c = -c
            stack.append(f.arg)
        elif kind is Const:
            if f is ZERO:
                return ZERO
            if f is _MINUS_ONE:
                c = -c  # a sign, as a Neg: no Fraction arithmetic
            elif f is not ONE:
                c *= f.value
        else:
            flat.append(f)
    core = flat
    if abs(c) != 1:
        core = [Const(abs(c))] + core
    if not core:
        return Const(c)
    result = core[0] if len(core) == 1 else Mul(tuple(core))
    return neg(result) if c < 0 else result


def neg(e: ExprLike) -> Expr:
    if not isinstance(e, Expr):
        e = as_expr(e)
    kind = type(e)
    if kind is Const:
        if e is ONE:
            return _MINUS_ONE
        return ONE if e is _MINUS_ONE else Const(-e.value)
    if kind is Neg:
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
    if isinstance(den, Const) and den is not ZERO:
        if isinstance(num, Const):
            v = num.value / den.value
            return Const(-v if sign < 0 else v)
        if den is ONE:
            return neg(num) if sign < 0 else num
    if num is ZERO and den is not ZERO:
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
    if isinstance(base, Const) and not (base is ZERO and exponent < 0):
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


# node class -> its children, in the order every lowering and walk takes them
_CHILDREN = {
    Const: lambda e: (),
    Sym: lambda e: (),
    Add: operator.attrgetter("terms"),
    Mul: operator.attrgetter("factors"),
    Neg: lambda e: (e.arg,),
    Div: operator.attrgetter("num", "den"),
    PowInt: lambda e: (e.base,),
    Ln: lambda e: (e.arg,),
    Exp: lambda e: (e.arg,),
}


def children(e: Expr) -> tuple:
    return _CHILDREN[type(e)](e)


def free_symbols(e: Expr) -> frozenset:
    """All symbols occurring structurally in the expression."""
    return e._symbols


def has_ln_exp(e: Expr) -> bool:
    """Whether the expression has an ln or exp node."""
    return bool(e._flags & _LN_EXP)


def diff(e: Expr, v: Symbol, memo: Optional[dict] = None) -> Expr:
    """Partial derivative with respect to ``v``, structurally simplified.

    Only subtrees that mention ``v`` are differentiated: every node knows
    the symbols of its subtree, and every other subtree has derivative
    ``ZERO`` at once, as the full walk would find (a constant-zero quotient
    or ln, whose derivative prints ``0/0``, is never skipped).  Each
    distinct subtree is differentiated once: nodes are interned, so a
    repeated subtree is one node, looked up in a memo, and its derivative is
    shared too.  The memo lasts one call, or as long as the caller keeps the
    one passed as ``memo``; one memo serves one variable and keeps every
    node it has seen alive.

    The result is the interned node that the smart constructors give for
    the rules of calculus.  A sum's and a product's derivatives are built
    straight from the node's normal-form children: a lone nonzero term of a
    sum is the result itself, and each product-rule term of a product in
    :func:`mul`'s normal form folds the derivative's sign and constant and
    splices in its factors, as :func:`mul` would.  Nodes out of normal form
    (built by hand, not by a constructor) go through :func:`add` and
    :func:`mul`.
    """
    return _diff(e, v, {} if memo is None else memo)


def _diff(e: Expr, v: Symbol, memo: dict) -> Expr:
    # one function, so a tree level costs one frame: derivatives have no depth cap
    if v not in e._symbols and not e._flags & _POLE:
        return ZERO
    hit = memo.get(e)
    if hit is not None:
        return hit
    kind = type(e)
    if kind is Sym:
        d = ONE  # it mentions v, so it is v
    elif kind is Add:
        terms = []  # the nonzero terms of the sum rule
        for t in e.terms:
            # the pruning and memo lookup above, written out: most terms end there
            if v in t._symbols or t._flags & _POLE:
                dt = memo.get(t)
                if dt is None:
                    dt = _diff(t, v, memo)
                if dt is not ZERO:
                    terms.append(dt)
        d = terms[0] if len(terms) == 1 and type(terms[0]) is not Add else add(*terms)
    elif kind is Mul:
        factors = e.factors
        # in mul's normal form: an optional leading constant c > 0, c != 1,
        # then no Mul, Neg or Const
        c, start = 1, 0
        if type(factors[0]) is Const:
            c, start = factors[0].value, 1
        normal = c > 0 and factors[0] is not ONE
        if normal:
            for f in factors[start:]:
                if type(f) is Mul or type(f) is Neg or type(f) is Const:
                    normal = False
                    break
        terms = []  # the nonzero terms of the product rule
        for i, f in enumerate(factors):
            if v not in f._symbols and not f._flags & _POLE:
                continue
            df = memo.get(f)
            if df is None:
                df = _diff(f, v, memo)
            if df is ZERO:
                continue
            if not normal:
                terms.append(mul(*factors[:i], df, *factors[i + 1 :]))
                continue
            # the node mul(*factors[:i], df, *factors[i + 1:]) gives: df's
            # sign and constant fold into c, and a product df (itself in
            # normal form) splices in its factors
            k = c
            if type(df) is Neg:
                k, df = -k, df.arg
            if type(df) is Const:
                if df is not ONE:
                    k *= df.value
                core = factors[start:i] + factors[i + 1 :]
                if not core:
                    terms.append(Const(k))
                    continue
            elif type(df) is Mul:
                inner = df.factors
                if type(inner[0]) is Const:
                    k *= inner[0].value
                    inner = inner[1:]
                core = factors[start:i] + inner + factors[i + 1 :]
            else:
                core = factors[start:i] + (df,) + factors[i + 1 :]
            if k != 1 and k != -1:
                core = (Const(abs(k)),) + core
            term = core[0] if len(core) == 1 else Mul(core)
            terms.append(Neg(term) if k < 0 else term)
        d = terms[0] if len(terms) == 1 and type(terms[0]) is not Add else add(*terms)
    elif kind is Neg:
        d = neg(_diff(e.arg, v, memo))
    elif kind is Div:
        dn, dd = _diff(e.num, v, memo), _diff(e.den, v, memo)
        if dd is ZERO:
            d = div(dn, e.den)
        else:
            d = div(add(mul(dn, e.den), neg(mul(e.num, dd))), pow_int(e.den, 2))
    elif kind is PowInt:
        d = mul(
            Const(e.exponent),
            pow_int(e.base, e.exponent - 1),
            _diff(e.base, v, memo),
        )
    elif kind is Ln:
        d = div(_diff(e.arg, v, memo), e.arg)
    elif kind is Exp:
        d = mul(e, _diff(e.arg, v, memo))
    else:
        raise TypeError(f"unhandled node {e!r}")
    memo[e] = d
    return d


def substitute(e: Expr, bindings: Mapping[Symbol, Expr]) -> Expr:
    """Simultaneous substitution; replacement expressions are not re-visited.

    Only subtrees that mention a bound symbol are rebuilt: every node knows
    the symbols of its subtree, and any other subtree is returned as it is,
    as :func:`diff` prunes.  A constructor-built subtree is what rebuilding
    it through the constructors would give anyway; a node out of normal form
    (built by hand) that mentions no bound symbol is returned unrebuilt.
    Each distinct subtree is substituted once, so a DAG that shares subtrees
    costs its distinct nodes, not its paths.
    """
    if not bindings:
        return e
    return _substitute(e, bindings, frozenset(bindings), {})


def _substitute(e: Expr, bindings: Mapping[Symbol, Expr], bound: frozenset, memo: dict) -> Expr:
    if e._symbols.isdisjoint(bound):
        return e
    hit = memo.get(e)
    if hit is not None:
        return hit
    kind = type(e)
    if kind is Sym:
        result = bindings[e.symbol]  # it mentions a bound symbol, so it is one
    elif kind is Add:
        result = add(*[_substitute(t, bindings, bound, memo) for t in e.terms])
    elif kind is Mul:
        result = mul(*[_substitute(f, bindings, bound, memo) for f in e.factors])
    elif kind is Neg:
        result = neg(_substitute(e.arg, bindings, bound, memo))
    elif kind is Div:
        result = div(
            _substitute(e.num, bindings, bound, memo), _substitute(e.den, bindings, bound, memo)
        )
    elif kind is PowInt:
        result = pow_int(_substitute(e.base, bindings, bound, memo), e.exponent)
    elif kind is Ln:
        result = ln(_substitute(e.arg, bindings, bound, memo))
    elif kind is Exp:
        result = exp(_substitute(e.arg, bindings, bound, memo))
    else:
        raise TypeError(f"unhandled node {e!r}")
    memo[e] = result
    return result


# ---------------------------------------------------------------------------
# lowering: expression DAGs to one straight-line instruction list, run over
# int/Fraction or floats by ExactProgram and printed as float source by
# FloatPrinter


def _exact(value):
    """``value`` as an int when it is integral, else as a Fraction."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


class _Lowering:
    """Walks expression DAGs once, emitting their post-order into ``instrs``
    (the module docstring gives the format), which :class:`ExactProgram`,
    :class:`FloatPrinter` and :func:`odeobs.poly.normalize_rational` read.
    Nodes are interned, so equal subtrees share one instruction.

    :meth:`value` looks a root up in ``by_node``; :meth:`emit` recurses only
    into children that the table does not hold yet, reading them from the
    class-keyed table :func:`children` reads too, so the walk makes one
    call per instruction.  A class rather than nested functions: a
    recursive closure is a reference cycle, which would keep the tables
    alive until the cyclic garbage collector ran.
    """

    def __init__(self):
        self.instrs: list = []
        self.by_node: dict = {}  # node -> value id

    def value(self, e: Expr) -> int:
        """The value id of ``e``, lowering it first if it is new."""
        value = self.by_node.get(e)
        return self.emit(e) if value is None else value

    def emit(self, e: Expr) -> int:
        """Lower ``e``, which has no instruction yet, after its new children."""
        kind = type(e)
        if kind is Sym:
            instr = (Sym, (), e.symbol)
        elif kind is Const:
            instr = (Const, (), _exact(e.value))
        else:
            by_node = self.by_node
            args = []
            for child in _CHILDREN[kind](e):
                value = by_node.get(child)
                args.append(self.emit(child) if value is None else value)
            instr = (kind, tuple(args), e)
        value = self.by_node[e] = len(self.instrs)
        self.instrs.append(instr)
        return value


class ExactProgram:
    """A matrix of expressions compiled to straight-line code.

    The code is the post-order of the entries' DAG, row by row: each
    structurally distinct subexpression is one instruction, run after its
    operands, so a run evaluates it once however often the trees repeat it,
    into a register of its own.  :meth:`run` is exact: integral values are
    Python ints, and a value becomes a Fraction only at a quotient that does
    not divide or a negative power, or through a non-integral constant.
    :meth:`run_float` runs the same instructions over IEEE doubles, ln/exp
    included.  Either raises the first error of that order.  The fields are
    read-only; :func:`odeobs.poly.normalize_rational` reads the code too.
    """

    __slots__ = ("symbols", "rational", "instrs", "outputs")

    def __init__(self, symbols: frozenset, rational: bool, instrs: tuple, outputs: tuple):
        self.symbols = symbols  # every symbol the matrix mentions
        self.rational = rational  # no ln/exp node
        self.instrs = instrs  # the instructions, in the format of the module docstring
        self.outputs = outputs  # the value id of each entry, row by row

    def run(self, point: Mapping[Symbol, Fraction]) -> list:
        """Exact values of the entries at ``point``, as a list of rows of int
        and Fraction.

        Raises :class:`DivisionByZeroError` at the first quotient or negative
        power of the post-order whose denominator or base is zero, and
        :class:`TranscendentalNodeError` at the first ln/exp node, after its
        argument has run, whichever comes first.
        """
        regs: list = []  # one register per instruction
        store = regs.append
        for op, args, payload in self.instrs:
            if op is Mul:
                value = regs[args[0]]
                for a in args[1:]:
                    value *= regs[a]
            elif op is Add:
                value = regs[args[0]]
                for a in args[1:]:
                    value += regs[a]
            elif op is Sym:
                try:
                    value = _exact(point[payload])
                except KeyError:
                    raise UnknownSymbolError(payload.name) from None
            elif op is Const:
                value = payload
            elif op is Neg:
                value = -regs[args[0]]
            elif op is Div:
                num, den = regs[args[0]], regs[args[1]]
                if den == 0:
                    raise DivisionByZeroError(payload)
                if type(num) is int and type(den) is int and num % den == 0:
                    value = num // den
                else:
                    value = _exact(Fraction(num, den))
            elif op is PowInt:
                base = regs[args[0]]
                exponent = payload.exponent
                if exponent >= 0:
                    value = base**exponent
                elif base == 0:
                    raise DivisionByZeroError(payload)
                else:
                    value = _exact(Fraction(1, base**-exponent))
            else:  # Ln or Exp
                raise TranscendentalNodeError(payload)
            store(value)
        return [[regs[v] for v in row] for row in self.outputs]

    def run_float(self, point: Mapping[Symbol, float]) -> list:
        """IEEE double values of the entries at ``point``, as a list of rows.

        Values are those of a tree walk of the entries, row by row: a sum is
        the :func:`math.fsum` of its terms, a product runs left to right from
        ``1.0``, and a quotient's numerator runs before its denominator.  The
        first error of the post-order is raised: a zero denominator or a
        negative power of zero raises :class:`DivisionByZeroError`, ln of a
        non-positive value :class:`DomainError`; overflow in ``**`` or exp
        raises OverflowError, and fsum raises as it does.  One order differs
        from a walk: all terms of a sum run before fsum, so where a partial
        sum overflows, an error in a later term of the same sum is raised in
        place of fsum's ``intermediate overflow``.
        """
        regs: list = []  # one register per instruction
        store = regs.append
        for op, args, payload in self.instrs:
            if op is Mul:
                value = 1.0
                for a in args:
                    value *= regs[a]
            elif op is Add:
                value = math.fsum([regs[a] for a in args])
            elif op is Sym:
                try:
                    value = float(point[payload])
                except KeyError:
                    raise UnknownSymbolError(payload.name) from None
            elif op is Const:
                value = payload.numerator / payload.denominator  # as float(Fraction) divides
            elif op is Neg:
                value = -regs[args[0]]
            elif op is Div:
                den = regs[args[1]]
                if den == 0.0:
                    raise DivisionByZeroError(payload)
                value = regs[args[0]] / den
            elif op is PowInt:
                base = regs[args[0]]
                if base == 0.0 and payload.exponent < 0:
                    raise DivisionByZeroError(payload)
                value = base**payload.exponent
            elif op is Ln:
                value = regs[args[0]]
                if value <= 0.0:
                    raise DomainError(f"ln of non-positive value {value}")
                value = math.log(value)
            else:  # Exp
                value = math.exp(regs[args[0]])
            store(value)
        return [[regs[v] for v in row] for row in self.outputs]


def compile_exact(rows: Sequence[Sequence[Expr]]) -> ExactProgram:
    """Compile a matrix (a sequence of rows of Expr) to an :class:`ExactProgram`.

    The program is the lowering of the entries, row by row, run as it stands;
    its symbols and whether it is rational are the entries' facts together.
    """
    lowering = _Lowering()
    outputs = tuple(tuple(lowering.value(entry) for entry in row) for row in rows)
    symbols, flags = _union([entry for row in rows for entry in row])
    return ExactProgram(symbols, not flags & _LN_EXP, tuple(lowering.instrs), outputs)


# precedence of the printed Python operators, loosest first
_SUM, _PRODUCT, _UNARY, _POWER, _ATOM = range(5)
_POLYNOMIAL = (Add, Mul, Neg, Const, Sym)  # the node kinds FloatPrinter.polynomial allows
_FOLDED = (Add, Mul, Neg)  # the kinds FloatPrinter prints as their value over parameters alone


def _literal(value: float) -> tuple:
    text = repr(value)  # round-trips exactly; inf and nan are names in the namespace
    return text, _UNARY if text.startswith("-") else _ATOM


class FloatPrinter:
    """Expressions printed as straight-line Python source over float locals.

    The expressions are lowered once, as for :func:`compile_exact`, and
    :meth:`emit` prints them as often as asked, each time over other state
    locals.  Operations keep the lowering's post-order, the order in which
    the expression is written: terms and factors left to right, a quotient's
    numerator before its denominator.  Parentheses appear only where
    Python's precedence needs them (its parser refuses more than 200 nested
    ones), and the compiled operations are those of the fully parenthesized
    tree.  Within one :meth:`emit` call, a composite value that the
    lowering's instructions and the expressions read more than once is
    computed at its first use, bound there with ``:=``, and read by name
    after that; one that folds to a bare local, name or literal is read as
    that text instead.  The evaluation order is unchanged, so every value is
    the one a plain tree walk gives, bit for bit, and so is the first
    exception raised.  A ``Neg`` term of a sum is printed as a subtraction:
    in IEEE arithmetic ``a + (-b)`` is exactly ``a - b``.  Parameters are
    inlined as float literals, except that a product factor or a divisor
    whose parameter is exactly ``1.0`` is left out, and a product left with
    no factor prints ``1.0``: ``x*1.0`` and ``x/1.0`` are ``x`` bit for bit,
    and neither can raise.  ``-1.0`` is kept, since ``-1.0*x`` and ``-x``
    differ in the sign of a NaN.  A sum, product or negation over parameters
    and constants alone prints as one literal, its value got by evaluating
    its printed source once: the same float operations, done once per
    printer instead of at every use, and ``+``, ``-`` and ``*`` never raise,
    so the first error is unchanged.  Quotients, powers, ln and exp are
    never folded.  :attr:`polynomial` says whether the source
    holds only ``+``, ``-`` and ``*``, which numpy computes on float64
    columns with the same bits and without raising.
    """

    def __init__(self, exprs: Sequence[Expr], params: Mapping[Symbol, float]):
        lowering = _Lowering()
        self.outputs = [lowering.value(e) for e in exprs]
        self.instrs = lowering.instrs
        uses = Counter(self.outputs)
        for _, args, _ in self.instrs:
            uses.update(args)
        self.shared = {v for v, n in uses.items() if n > 1}
        self.polynomial = all(op in _POLYNOMIAL for op, _, _ in self.instrs)
        self.params = params
        self.n_bound = 0
        self.env: Mapping[Symbol, str] = {}
        self.names: dict = {}  # value id -> local name, once bound
        self.folded: set = set()  # the value ids printed as their value
        self.literals: dict = {}  # value id -> its value's literal, once evaluated

    def emit(self, env: Mapping[Symbol, str]) -> list:
        """Source of each expression, with ``env`` naming the state locals."""
        self.env = env
        self.names = {}
        constant = set()  # the values over parameters and constants alone
        self.folded = set()
        for v, (op, args, payload) in enumerate(self.instrs):
            if op is Const or (op is Sym and payload not in env and payload in self.params):
                constant.add(v)
            elif op in _FOLDED and all(a in constant for a in args):
                constant.add(v)
                self.folded.add(v)
        return [self._emit(v, _SUM) for v in self.outputs]

    def _emit(self, v: int, least: int) -> str:
        """Source of value ``v``, parenthesized unless it binds at least as tightly as ``least``."""
        text, precedence = self._printed(v)
        return text if precedence >= least else f"({text})"

    def _unit(self, v: int) -> bool:
        """Whether value ``v`` is a parameter equal to 1.0 (a state local is never one)."""
        op, _, payload = self.instrs[v]
        return op is Sym and payload not in self.env and self.params.get(payload) == 1.0

    def _bare(self, v: int) -> bool:
        """Whether value ``v`` prints as a bare local, bound name or literal: a
        leaf, a folded value, or a product or quotient left with at most one
        such operand once its unit parameters fold out."""
        op, args, _ = self.instrs[v]
        if op is Const or op is Sym or v in self.names or v in self.folded:
            return True
        if op is Mul:
            kept = [a for a in args if not self._unit(a)]
            return not kept or (len(kept) == 1 and self._bare(kept[0]))
        return op is Div and self._unit(args[1]) and self._bare(args[0])

    def _printed(self, v: int) -> tuple:
        # two frames per tree level (this and _emit), and no generator frames
        op, args, payload = self.instrs[v]
        if op is Const:
            return _literal(float(payload))
        if op is Sym:
            if payload in self.env:
                return self.env[payload], _ATOM
            if payload in self.params:
                return _literal(float(self.params[payload]))
            raise KeyError(f"unbound symbol {payload.name!r}")
        name = self.names.get(v)
        if name is not None:
            return name, _ATOM
        folded = v in self.folded
        if folded and v in self.literals:
            return self.literals[v]
        if op is Add:
            parts = [self._emit(args[0], _SUM)]
            for a in args[1:]:
                term_op, term_args, _ = self.instrs[a]
                if term_op is Neg and a not in self.shared:
                    parts.append(" - " + self._emit(term_args[0], _PRODUCT))
                else:
                    parts.append(" + " + self._emit(a, _PRODUCT))
            text, precedence = "".join(parts), _SUM
        elif op is Mul:
            kept = [a for a in args if not self._unit(a)]
            if not kept:
                text, precedence = "1.0", _ATOM
            elif len(kept) == 1:
                text, precedence = self._printed(kept[0])
            else:
                parts = [self._emit(kept[0], _PRODUCT)]
                for a in kept[1:]:
                    parts.append(" * " + self._emit(a, _UNARY))
                text, precedence = "".join(parts), _PRODUCT
        elif op is Neg:
            text, precedence = "-" + self._emit(args[0], _UNARY), _UNARY
        elif op is Div:
            num, den = args
            if self._unit(den):
                text, precedence = self._printed(num)
            else:
                text = f"{self._emit(num, _PRODUCT)} / {self._emit(den, _UNARY)}"
                precedence = _PRODUCT
        elif op is PowInt:
            text, precedence = f"{self._emit(args[0], _ATOM)} ** {payload.exponent}", _POWER
        else:
            function = "math.log" if op is Ln else "math.exp"
            text, precedence = f"{function}({self._emit(args[0], _SUM)})", _ATOM
        if folded:
            # text holds only literals and +, - and *, so eval cannot raise
            literal = self.literals[v] = _literal(eval(text, {"inf": math.inf, "nan": math.nan}))
            return literal
        if v not in self.shared or self._bare(v):
            return text, precedence
        name = self.names[v] = f"c{self.n_bound}"
        self.n_bound += 1
        return f"({name} := {text})", _ATOM


def eval_exact(e: Expr, point: Mapping[Symbol, Fraction]) -> Fraction:
    """Exact rational evaluation; rejects ln/exp nodes.  One-entry :func:`compile_exact`."""
    return Fraction(compile_exact(((e,),)).run(point)[0][0])


def eval_float(e: Expr, point: Mapping[Symbol, float]) -> float:
    """IEEE double evaluation; ln requires a positive argument.

    One-entry :meth:`ExactProgram.run_float`.
    """
    return compile_exact(((e,),)).run_float(point)[0][0]


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

# One match per token, and one per character that starts no token, whose
# match leaves the group empty; whitespace matches nothing.  ``findall``
# gives the token strings, a bad character as the empty string.
_TOKEN_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+|[A-Za-z][A-Za-z0-9_]*|[-+*/^()])|\S")
_END = ""  # the token after the last


def _position(text: str, i: int) -> int:
    """Where token ``i`` of ``text`` starts, the end of the text for the end
    token: computed only for an error message."""
    for k, match in enumerate(_TOKEN_RE.finditer(text)):
        if k == i:
            return match.start()
    return len(text)


class _Parser:
    """Recursive descent over the token strings, one method per grammar
    rule, dispatching on the strings themselves: an integer is all digits,
    a decimal literal holds a ``.``, a name starts with a letter.  A sum
    and each run of ``*`` factors are built by one :func:`add` or
    :func:`mul` call, which flatten, so the node is the one the binary
    operations would build.  Errors name token indices, which become text
    positions only when one is raised."""

    def __init__(self, text: str, table: Mapping[str, Symbol]):
        tokens = _TOKEN_RE.findall(text)
        if "" in tokens:
            pos = _position(text, tokens.index(""))
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append(_END)
        self.text = text
        self.tokens = tokens
        self.i = 0  # the index of the next token
        self.table = table
        self.depth = 0  # parentheses, unary minus and "/" signs open at the cursor

    def error(self, message: str, i: int) -> ExprSyntaxError:
        return ExprSyntaxError(message, _position(self.text, i))

    def enter(self, i: int) -> None:
        """Open one more nesting level, at token ``i``."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", i)

    def close(self) -> None:
        """Take the ``)`` that ends an open parenthesis."""
        i = self.i
        self.i = i + 1
        if self.tokens[i] != ")":
            raise self.error("expected ')'", i)
        self.depth -= 1

    def expr(self) -> Expr:
        tokens = self.tokens
        terms = [self.term()]
        while True:
            t = tokens[self.i]
            if t == "+":
                self.i += 1
                terms.append(self.term())
            elif t == "-":
                self.i += 1
                terms.append(neg(self.term()))
            else:
                return terms[0] if len(terms) == 1 else add(*terms)

    def term(self) -> Expr:
        # each '/' nests the quotient so far one level deeper in the tree
        tokens = self.tokens
        factors = [self.factor()]
        divisions = 0
        while True:
            t = tokens[self.i]
            if t == "*":
                self.i += 1
                factors.append(self.factor())
            elif t == "/":
                self.enter(self.i)
                self.i += 1
                divisions += 1
                num = factors[0] if len(factors) == 1 else mul(*factors)
                factors = [div(num, self.factor())]
            else:
                break
        self.depth -= divisions
        return factors[0] if len(factors) == 1 else mul(*factors)

    def factor(self) -> Expr:
        tokens = self.tokens
        if tokens[self.i] == "-":
            self.enter(self.i)
            self.i += 1
            e = neg(self.factor())
            self.depth -= 1
            return e
        a = self.atom()
        if tokens[self.i] == "^":
            self.i += 1
            return pow_int(a, self.exponent())
        return a

    def exponent(self) -> int:
        tokens = self.tokens
        i = self.i
        sign = 1
        if tokens[i] == "-":
            sign, i = -1, i + 1
        t = tokens[i]
        self.i = i + 1
        if "." in t:
            raise NonIntegerExponentError(_position(self.text, i))
        if not t.isdigit():
            raise self.error("expected integer exponent", i)
        return sign * int(t)

    def atom(self) -> Expr:
        i = self.i
        t = self.tokens[i]
        self.i = i + 1
        if t[:1].isalpha():  # a name
            if (t == "ln" or t == "exp") and self.tokens[i + 1] == "(":
                self.enter(i + 1)
                self.i = i + 2
                arg = self.expr()
                self.close()
                return ln(arg) if t == "ln" else exp(arg)
            table = self.table
            if t not in table:
                raise UnknownSymbolError(t)
            return Sym(table[t])
        if t == "(":
            self.enter(i)
            e = self.expr()
            self.close()
            return e
        if t.isdigit():
            return Const(int(t))
        if "." in t:
            raise self.error("decimal literals are not supported; write a fraction p/q", i)
        raise self.error(f"unexpected token {t!r}", i)


def parse_expr(text: str, symbols) -> Expr:
    """Parse ``text`` against a symbol table.

    ``symbols`` is either a mapping from name to :class:`Symbol` or an
    iterable of symbols.  Every identifier in the text must be declared.
    A syntax error is an :class:`ExprSyntaxError` at the position of the
    token (or character) it names, the end of the text for a missing one.
    """
    if not isinstance(symbols, Mapping):
        symbols = {s.name: s for s in symbols}
    parser = _Parser(text, symbols)
    e = parser.expr()
    t = parser.tokens[parser.i]
    if t != _END:
        raise parser.error(f"unexpected trailing input {t!r}", parser.i)
    return e
