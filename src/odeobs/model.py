"""ODE system representation, model files, conserved quantities, reductions.

Model file format (line oriented, ``#`` starts a comment, sections in this
order)::

    model: <name>
    params: <id> (, <id>)*
    states: <id> (, <id>)*
    d<id>/dt = <expr>          # one per state, in any state order
    conserved <LEVEL>: <expr>  # zero or more
    observe <label>: <id> (, <id>)*   # zero or more

``LEVEL`` names the constant value of the conserved expression (total
population, initial enzyme, ...) and becomes a parameter of any reduced
system built from that quantity.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .expr import (
    NAME_RE,
    ZERO,
    Expr,
    Sym,
    Symbol,
    UnknownSymbolError,
    add,
    diff,
    free_symbols,
    mul,
    parse_expr,
)
from .poly import ZERO_EXACT, PROBABLY_ZERO, ZeroTestResult, is_zero

UNCHECKED = "unchecked"
EXACT = "exact"
PROBABILISTIC = "probabilistic"
REFUTED = "refuted"


class ModelError(Exception):
    """Base class for model-level failures."""


class ModelSyntaxError(ModelError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class MissingEquationError(ModelError):
    def __init__(self, state_name: str):
        super().__init__(f"missing equation for state {state_name!r}")
        self.state_name = state_name


class DuplicateEquationError(ModelError):
    def __init__(self, state_name: str):
        super().__init__(f"duplicate equation for state {state_name!r}")
        self.state_name = state_name


class NotAffineError(ModelError):
    def __init__(self, var: Symbol):
        super().__init__(f"conserved quantity is not affine in {var.name}")
        self.var = var


class ZeroCoefficientError(ModelError):
    def __init__(self, var: Symbol):
        super().__init__(f"conserved quantity has zero coefficient on {var.name}")
        self.var = var


class ConservedQuantity(NamedTuple):
    """A scalar function of the state that stays constant along trajectories."""

    expr: Expr
    level_name: str
    verified: str = UNCHECKED  # unchecked | exact | probabilistic

    def level_symbol(self) -> Symbol:
        return Symbol(self.level_name, "parameter")

    def with_verified(self, status: str) -> "ConservedQuantity":
        return self._replace(verified=status)


class ConservedSet(NamedTuple):
    """An ordered collection of conserved quantities treated jointly."""

    quantities: Tuple[ConservedQuantity, ...]

    def state_vars(self, sys: "OdeSystem") -> Tuple[Symbol, ...]:
        seen = set()
        for q in self.quantities:
            seen |= {s for s in free_symbols(q.expr) if s.kind == "state"}
        return tuple(s for s in sys.states if s in seen)

    def levels(self) -> Tuple[Symbol, ...]:
        return tuple(q.level_symbol() for q in self.quantities)


class _ObservationFields(NamedTuple):
    outputs: Tuple[Expr, ...]
    label: str


class ObservationSet(_ObservationFields):
    """Outputs assumed measurable, as expressions over the declared symbols."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.outputs:
            raise ModelError(f"observation set {self.label!r} has no outputs")
        return self

    def observed_states(self) -> frozenset:
        seen = set()
        for out in self.outputs:
            seen |= {s for s in free_symbols(out) if s.kind == "state"}
        return frozenset(seen)


class _SystemFields(NamedTuple):
    name: str
    states: Tuple[Symbol, ...]
    params: Tuple[Symbol, ...]
    rhs: Tuple[Expr, ...]
    conserved: Tuple[ConservedQuantity, ...] = ()
    observations: Tuple[ObservationSet, ...] = ()


class OdeSystem(_SystemFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.rhs) != len(self.states):
            raise ModelError("one right-hand side per state required")
        names = [s.name for s in self.states + self.params]
        if len(set(names)) != len(names):
            raise ModelError("duplicate symbol names in model")
        declared = set(self.states) | set(self.params)
        for s, e in zip(self.states, self.rhs):
            undeclared = free_symbols(e) - declared
            if undeclared:
                bad = sorted(undeclared, key=lambda x: x.name)[0]
                raise UnknownSymbolError(bad.name)
        return self

    @property
    def n(self) -> int:
        return len(self.states)

    def state_index(self, symbol: Symbol) -> int:
        return self.states.index(symbol)

    def state_named(self, name: str) -> Symbol:
        for s in self.states:
            if s.name == name:
                return s
        raise UnknownSymbolError(name)

    def symbol_table(self) -> Dict[str, Symbol]:
        return {s.name: s for s in self.states + self.params}

    def conserved_named(self, level_name: str) -> ConservedQuantity:
        for q in self.conserved:
            if q.level_name == level_name:
                return q
        raise ModelError(f"no conserved quantity with level {level_name!r}")

    def with_conserved(self, quantities: Iterable[ConservedQuantity]) -> "OdeSystem":
        return self._replace(conserved=tuple(quantities))


# ---------------------------------------------------------------------------
# model file parsing

_EQ_RE = re.compile(r"d([A-Za-z][A-Za-z0-9_]*)\s*/\s*dt\s*=\s*(.+)\Z")


def _split_names(body: str, line_no: int) -> List[str]:
    names = [part.strip() for part in body.split(",")]
    for name in names:
        if not NAME_RE.match(name):
            raise ModelSyntaxError(f"invalid identifier {name!r}", line_no)
    if len(set(names)) != len(names):
        raise ModelSyntaxError("repeated identifier", line_no)
    return names


def parse_model(text: str) -> OdeSystem:
    """Parse the line-oriented model format into an :class:`OdeSystem`."""
    lines = []
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((idx, stripped))
    pos = 0

    def take(prefix: str) -> Tuple[int, str]:
        nonlocal pos
        if pos < len(lines) and lines[pos][1].startswith(prefix):
            line_no, content = lines[pos]
            pos += 1
            return line_no, content[len(prefix):].strip()
        where = lines[pos][0] if pos < len(lines) else (lines[-1][0] if lines else 1)
        raise ModelSyntaxError(f"expected {prefix!r} line", where)

    _, name = take("model:")
    if not name:
        raise ModelSyntaxError("model name missing", lines[0][0])
    ln_no, params_body = take("params:")
    params = tuple(Symbol(n, "parameter") for n in _split_names(params_body, ln_no))
    ln_no, states_body = take("states:")
    states = tuple(Symbol(n, "state") for n in _split_names(states_body, ln_no))
    state_names = {s.name for s in states}
    if state_names & {p.name for p in params}:
        raise ModelSyntaxError("state and parameter names overlap", ln_no)
    table = {s.name: s for s in states + params}

    rhs_by_state: Dict[str, Expr] = {}
    while pos < len(lines):
        line_no, content = lines[pos]
        m = _EQ_RE.match(content)
        if not m:
            break
        pos += 1
        state_name, expr_text = m.group(1), m.group(2)
        if state_name not in state_names:
            raise UnknownSymbolError(state_name)
        if state_name in rhs_by_state:
            raise DuplicateEquationError(state_name)
        rhs_by_state[state_name] = parse_expr(expr_text, table)
    for s in states:
        if s.name not in rhs_by_state:
            raise MissingEquationError(s.name)

    conserved: List[ConservedQuantity] = []
    while pos < len(lines) and lines[pos][1].startswith("conserved "):
        line_no, content = lines[pos]
        pos += 1
        head, _, expr_text = content[len("conserved "):].partition(":")
        level = head.strip()
        if not NAME_RE.match(level):
            raise ModelSyntaxError(f"invalid level name {level!r}", line_no)
        if level in table:
            raise ModelSyntaxError(
                f"level name {level!r} collides with a declared symbol", line_no
            )
        if any(q.level_name == level for q in conserved):
            raise ModelSyntaxError("duplicate conserved level name", line_no)
        expr = parse_expr(expr_text.strip(), table)
        if not any(s.kind == "state" for s in free_symbols(expr)):
            raise ModelSyntaxError("conserved expression involves no state", line_no)
        conserved.append(ConservedQuantity(expr, level))

    observations: List[ObservationSet] = []
    while pos < len(lines) and lines[pos][1].startswith("observe "):
        line_no, content = lines[pos]
        pos += 1
        head, _, body = content[len("observe "):].partition(":")
        label = head.strip()
        if not label:
            raise ModelSyntaxError("observation label missing", line_no)
        names = _split_names(body.strip(), line_no)
        outputs = []
        for n in names:
            if n not in table or table[n].kind != "state":
                raise UnknownSymbolError(n)
            outputs.append(Sym(table[n]))
        observations.append(ObservationSet(tuple(outputs), label))

    if pos < len(lines):
        raise ModelSyntaxError(f"unknown directive {lines[pos][1]!r}", lines[pos][0])

    return OdeSystem(
        name=name,
        states=states,
        params=params,
        rhs=tuple(rhs_by_state[s.name] for s in states),
        conserved=tuple(conserved),
        observations=tuple(observations),
    )


def load_model(path) -> OdeSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read())


# ---------------------------------------------------------------------------
# conserved-quantity verification


class ConservedVerdict(NamedTuple):
    status: str  # exact | probabilistic | refuted
    witness: Optional[dict] = None
    detail: Optional[ZeroTestResult] = None


def lie_derivative(sys: OdeSystem, y: Expr) -> Expr:
    """Time derivative of ``y`` along the vector field: sum_i f_i * dy/dx_i."""
    return along_field(sys, [diff(y, s) for s in sys.states])


def along_field(sys: OdeSystem, gradient: Sequence[Expr]) -> Expr:
    """Time derivative of an expression, given its gradient over the states."""
    return add(
        *[
            mul(f, g)
            for f, g in zip(sys.rhs, gradient)
            if g is not ZERO
        ]
    )


def verify_conserved(
    sys: OdeSystem, quantity: ConservedQuantity, seed: int = 0
) -> ConservedVerdict:
    """Check grad(H) . f == 0; exact on the rational subset."""
    declared = set(sys.states) | set(sys.params)
    if free_symbols(quantity.expr) - declared:
        raise UnknownSymbolError(
            sorted(free_symbols(quantity.expr) - declared, key=lambda s: s.name)[0].name
        )
    residual = lie_derivative(sys, quantity.expr)
    result = is_zero(residual, seed=seed)
    if result.kind == ZERO_EXACT:
        return ConservedVerdict(EXACT, detail=result)
    if result.kind == PROBABLY_ZERO:
        return ConservedVerdict(PROBABILISTIC, detail=result)
    return ConservedVerdict(REFUTED, witness=result.witness, detail=result)


def verify_all_conserved(
    sys: OdeSystem, seed: int = 0
) -> Tuple[OdeSystem, List[ConservedVerdict]]:
    """Verify every declared quantity; returns the updated system copy."""
    verdicts = []
    updated = []
    for q in sys.conserved:
        verdict = verify_conserved(sys, q, seed=seed)
        verdicts.append(verdict)
        if verdict.status in (EXACT, PROBABILISTIC):
            updated.append(q.with_verified(verdict.status))
        else:
            updated.append(q)
    return sys.with_conserved(updated), verdicts


# ---------------------------------------------------------------------------
# reduction through a conserved quantity


def reduce_by_conserved(
    sys: OdeSystem, quantity: ConservedQuantity, solve_for: Symbol
) -> OdeSystem:
    """Eliminate ``solve_for`` from the dynamics through one conserved quantity.

    The one-quantity case of :func:`odeobs.conserved.eliminate_states`: the
    level equation is solved for ``solve_for``, which is substituted into
    every other equation, and the solved state's equation becomes the
    derivative of that solution along the new field, so it becomes a source
    node.  Raises :class:`NotAffineError` or :class:`ZeroCoefficientError`
    when the quantity cannot be solved for ``solve_for``.
    """
    from .conserved import eliminate_states  # conserved imports this module

    return eliminate_states(sys, ConservedSet((quantity,)), (solve_for,))
