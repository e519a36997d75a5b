"""Numeric cross-checks: RK4 trajectories, drift, distinguishability.

The integrator is a deliberately plain fixed-step classical Runge-Kutta: the
systems here are smooth and small, and a fixed grid keeps drift measurements
and output comparisons deterministic.  Each run compiles the time loop
itself into one generated function of the n state scalars: its body is the
whole step in straight-line code, the four stages, their inputs and the
update, with structurally equal subexpressions computed once per stage.
The state stays in local variables, and each step writes it straight into
the trajectory's float64 array with one ``struct`` ``pack_into`` call.
``integrate_rk4`` calls the loop once per block of ``_ROW_BLOCK`` rows and
then checks the block's rows for finiteness, so the loop itself tests
nothing per step; a stage error ends the loop and is returned with the
offset of the rows written before it.  Drift and observed outputs are one
printed function of the n state values.  When it is polynomial (only
``+``, ``-`` and ``*``) it runs once on the trajectory's state columns
with numpy, which computes the same bits as Python floats and, like them,
raises nothing.  Any other function runs once per row on Python floats; so
a pole on the trajectory raises ``ZeroDivisionError`` instead of turning
into ``inf``.  The source is printed by
:class:`odeobs.expr.FloatPrinter` from the lowering that
:func:`odeobs.expr.compile_exact` runs: the expressions are lowered once per
compiled function, and printed once per RK4 stage; a parameter equal to
1.0 is left out of the products and quotients it would scale.
:func:`distinguishability` and :func:`unobservability_witness` compile the
RK4 loop once for all the trajectories they integrate.  numpy is imported
inside the functions that build or read an array, so importing this module,
as the exact ``analyze``, ``verify`` and ``graph`` commands do, never loads it.

A search for an unobservability witness perturbs the base point only along
state directions whose values cannot influence the observed outputs (states
not reachable from the observed nodes in the inference graph); two initial
conditions whose observed outputs coincide on the whole grid refute
observability empirically.  Finding no witness never proves observability.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .expr import Expr, FloatPrinter, Symbol
from .graph import build_graph, forward_closure
from .model import ConservedQuantity, ObservationSet, OdeSystem

ZERO_DISTANCE = 1e-12  # outputs closer than this over the grid count as identical
_ROW_BLOCK = 256  # trajectory rows integrated, or read as Python floats, at a time


class EvaluationError(Exception):
    def __init__(self, t: float, reason: str):
        super().__init__(f"evaluation failed at t={t}: {reason}")
        self.t = t
        self.reason = reason


@dataclass(frozen=True)
class Trajectory:
    states: Tuple[Symbol, ...]
    times: np.ndarray  # uniform grid starting at 0
    values: np.ndarray  # len(times) x n
    params: Dict[str, float]
    diverged: bool = False


@dataclass(frozen=True)
class WitnessPair:
    x0_a: Tuple[float, ...]
    x0_b: Tuple[float, ...]
    output_distance: float
    horizon: float
    direction: Optional[str] = None  # perturbed state name, when applicable


def _normalize_params(sys: OdeSystem, params: Mapping) -> Dict[Symbol, float]:
    by_name = {p.name: p for p in sys.params}
    out: Dict[Symbol, float] = {}
    for key, value in params.items():
        name = key.name if isinstance(key, Symbol) else str(key)
        if name not in by_name:
            raise KeyError(f"unknown parameter {name!r}")
        out[by_name[name]] = float(value)
    missing = [p.name for p in sys.params if p not in out]
    if missing:
        raise KeyError(f"missing parameter values for {missing}")
    return out


def compile_functions(
    states: Sequence[Symbol],
    exprs: Sequence[Expr],
    params: Mapping[Symbol, float],
    dt: float,
) -> Callable:
    """Compile the classical RK4 loop of the right-hand sides ``exprs``, parameters inlined.

    The result is ``run(x0, ..., x{n-1}, steps, pack, buf, offset)``: it
    takes ``steps`` steps from the given state and writes each new state
    with one call ``pack(buf, offset, x0, ..., x{n-1})``, advancing
    ``offset`` by ``8*n`` bytes, so ``pack`` is the ``pack_into`` of
    ``struct.Struct(f"{n}d")`` and ``buf`` a writable buffer, such as the
    bytes of a float64 array.  Each stage evaluates the right-hand sides at
    ``x + (dt/2)*k`` or ``x + dt*k``, and the update is
    ``x + dt/6*(k1 + 2.0*k2 + 2.0*k3 + k4)``.  It checks no state for
    finiteness.  It returns ``(offset, None)`` after ``steps`` steps; a
    stage's ``ZeroDivisionError``, ``ValueError`` or ``OverflowError`` ends
    it, returned as ``(offset, error)``, where ``offset`` is past the last
    state written.
    """
    printer = FloatPrinter(exprs, params)
    xs = [f"x{i}" for i in range(len(states))]
    args = ", ".join(xs) + ","
    # dt > 0, so every scale prints as a plain literal; repr round-trips
    lines = [
        f"def _compiled({args} steps, pack, buf, offset):",
        "    try:",
        "        for _ in range(steps):",
    ]
    ks: List[List[str]] = []
    for stage, scale in enumerate((None, dt / 2.0, dt / 2.0, dt), start=1):
        inputs = xs
        if scale is not None:
            inputs = [f"u{stage}_{i}" for i in range(len(xs))]
            lines += [
                f"            {u} = {x} + {scale!r} * {k}" for u, x, k in zip(inputs, xs, ks[-1])
            ]
        ks.append([f"k{stage}_{i}" for i in range(len(xs))])
        values = printer.emit(dict(zip(states, inputs)))
        lines += [f"            {k} = {v}" for k, v in zip(ks[-1], values)]
    # each update reads only its own state and ks, so updating in place
    # computes what a simultaneous update would
    lines += [
        f"            {x} = {x} + {dt / 6.0!r} * ({a} + 2.0 * {b} + 2.0 * {c} + {d})"
        for x, a, b, c, d in zip(xs, *ks)
    ]
    lines += [
        f"            pack(buf, offset, {', '.join(xs)})",
        f"            offset += {8 * len(xs)}",
        "    except (ZeroDivisionError, ValueError, OverflowError) as exc:",
        "        return offset, exc",
        "    return offset, None",
    ]
    return _exec(lines)


def _scalar_function(printer: FloatPrinter, states: Sequence[Symbol]) -> Callable:
    """The printed expressions as a function of the n state values, returning one value each.

    Called on Python floats it returns floats; called on the state columns,
    arrays, or a float where an expression reads no state.
    """
    xs = [f"x{i}" for i in range(len(states))]
    values = ", ".join(printer.emit(dict(zip(states, xs))))
    return _exec([f"def _compiled({', '.join(xs)},):", f"    return ({values},)"])


def _exec(lines: List[str]) -> Callable:
    """The function ``_compiled`` that the source ``lines`` define."""
    namespace = {"math": math, "inf": math.inf, "nan": math.nan}
    exec("\n".join(lines) + "\n", namespace)
    return namespace["_compiled"]


def _normalize_x0(sys: OdeSystem, x0) -> np.ndarray:
    import numpy as np

    if isinstance(x0, Mapping):
        names = {s.name for s in sys.states}
        by_name: Dict[str, float] = {}
        for key, value in x0.items():
            name = key.name if isinstance(key, Symbol) else str(key)
            if name not in names:
                raise KeyError(f"unknown state {name!r}")
            by_name[name] = float(value)
        try:
            return np.array([by_name[s.name] for s in sys.states], dtype=float)
        except KeyError as exc:
            raise KeyError(f"missing initial value for state {exc.args[0]!r}") from None
    arr = np.asarray(list(x0), dtype=float)
    if arr.shape != (sys.n,):
        raise ValueError(f"expected {sys.n} initial values, got {arr.shape}")
    return arr


def integrate_rk4(
    sys: OdeSystem,
    x0,
    params: Mapping,
    dt: float,
    T: float,
) -> Trajectory:
    """Classical fixed-step RK4 from t=0 to T; divergence truncates."""
    return _integrate(_rk4_loop(sys, params, dt, T), sys, x0, params, dt, T)


def _rk4_loop(sys: OdeSystem, params: Mapping, dt: float, T: float) -> Callable:
    """The compiled RK4 loop of ``sys``, after checking the grid."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if T < dt:
        raise ValueError("T must be at least dt")
    return compile_functions(sys.states, sys.rhs, _normalize_params(sys, params), dt)


def _integrate(run: Callable, sys: OdeSystem, x0, params: Mapping, dt: float, T: float) -> Trajectory:
    """The trajectory from ``x0`` of the RK4 loop ``run`` that :func:`_rk4_loop` compiled.

    ``run`` writes ``_ROW_BLOCK`` rows at a time straight into the
    trajectory array, and each block's rows are then checked for
    finiteness.  The first non-finite row truncates the trajectory, also
    when a stage failed later in the block: the loop stepped on from a
    state that a per-step check would have stopped at.
    """
    import numpy as np

    steps = int(math.floor(T / dt + 1e-9))
    x = _normalize_x0(sys, x0).tolist()
    values = np.empty((steps + 1, sys.n), dtype=float)
    values[0] = x
    pack = struct.Struct(f"{sys.n}d").pack_into
    buf = memoryview(values).cast("B")
    row_bytes = values.itemsize * sys.n
    diverged = False
    filled = 1
    while filled <= steps:
        offset, error = run(*x, min(_ROW_BLOCK, steps + 1 - filled), pack, buf, filled * row_bytes)
        written = offset // row_bytes
        finite = np.isfinite(values[filled:written]).all(axis=1)
        if not finite.all():
            filled += int(finite.argmin())
            diverged = True
            break
        filled = written
        if isinstance(error, OverflowError):
            diverged = True
            break
        if error is not None:
            reason = "division by zero" if isinstance(error, ZeroDivisionError) else str(error)
            raise EvaluationError((filled - 1) * dt, reason)
        x = values[filled - 1].tolist()
    times = np.arange(filled) * dt
    return Trajectory(
        states=sys.states,
        times=times,
        values=values[:filled],
        params={
            (k.name if isinstance(k, Symbol) else str(k)): float(v)
            for k, v in params.items()
        },
        diverged=diverged,
    )


def _scalars(traj: Trajectory, exprs: Sequence[Expr]) -> Callable[[Trajectory], np.ndarray]:
    """Evaluator of ``exprs`` on the grid, with the states and parameters of ``traj``.

    It maps a trajectory to one row per grid point, one column per
    expression, all computed by one printed scalar function.  When its
    source holds only ``+``, ``-`` and ``*``, it runs once on the state
    columns: numpy's float64 elementwise operations are the IEEE operations
    Python's floats make, none of which raises in Python (overflow gives
    ``inf``, ``inf - inf`` gives ``nan``), so the values are the same bits.
    Otherwise it runs once per row on Python floats, read ``_ROW_BLOCK``
    rows at a time, so a pole raises ``ZeroDivisionError`` and an
    overflowing power ``OverflowError``, the first of the row order.
    """
    import numpy as np

    params = {Symbol(name, "parameter"): value for name, value in traj.params.items()}
    printer = FloatPrinter(exprs, params)
    function = _scalar_function(printer, traj.states)
    if printer.polynomial:

        def series(run: Trajectory) -> np.ndarray:
            out = np.empty((len(run.values), len(exprs)), dtype=float)
            with np.errstate(all="ignore"):  # Python floats overflow and make nan silently too
                for j, value in enumerate(function(*run.values.T)):
                    out[:, j] = value  # a float, for an expression of no state, fills the column
            return out

        return series

    def series(run: Trajectory) -> np.ndarray:
        values = run.values
        out = np.empty((len(values), len(exprs)), dtype=float)
        for a in range(0, len(values), _ROW_BLOCK):
            out[a:a + _ROW_BLOCK] = [function(*row) for row in values[a:a + _ROW_BLOCK].tolist()]
        return out

    return series


def conserved_drift(traj: Trajectory, quantity: Union[ConservedQuantity, Expr]) -> float:
    """max over the grid of |H(x(t)) - H(x(0))|."""
    import numpy as np

    expr = quantity.expr if isinstance(quantity, ConservedQuantity) else quantity
    series = _scalars(traj, [expr])(traj)[:, 0]
    with np.errstate(invalid="ignore"):  # H(x(0)) = inf gives inf - inf: the drift is nan
        return float(np.max(np.abs(series - series[0])))


def _output_distance(series_a: np.ndarray, series_b: np.ndarray) -> float:
    """Largest sup-norm distance of one output over the grid both series cover.

    A ``nan`` gap (an output that is ``inf - inf`` on the grid, say) tells
    nothing about the distance, so it reads as infinitely far.
    """
    import numpy as np

    shared = min(len(series_a), len(series_b))
    distance = 0.0
    for j in range(series_a.shape[1]):
        with np.errstate(invalid="ignore"):  # inf - inf is nan, read below
            gap = float(np.max(np.abs(series_a[:shared, j] - series_b[:shared, j])))
        if math.isnan(gap):
            return math.inf
        distance = max(distance, gap)
    return distance


def distinguishability(
    sys: OdeSystem,
    obs: ObservationSet,
    x0_a,
    x0_b,
    params: Mapping,
    dt: float,
    T: float,
) -> WitnessPair:
    """Sup-norm distance of the observed outputs from two initial states.

    Outputs are evaluated over Python floats, so an output that cannot be
    evaluated at some grid point raises: ``ZeroDivisionError`` at a pole,
    ``ValueError`` for ln of a non-positive value, ``OverflowError`` when a
    power or exp leaves the float range.
    """
    run = _rk4_loop(sys, params, dt, T)
    traj_a = _integrate(run, sys, x0_a, params, dt, T)
    traj_b = _integrate(run, sys, x0_b, params, dt, T)
    outputs = _scalars(traj_a, obs.outputs)
    return WitnessPair(
        x0_a=tuple(_normalize_x0(sys, x0_a)),
        x0_b=tuple(_normalize_x0(sys, x0_b)),
        output_distance=_output_distance(outputs(traj_a), outputs(traj_b)),
        horizon=T,
    )


def unobservability_witness(
    sys: OdeSystem,
    obs: ObservationSet,
    base_point,
    params: Mapping,
    dt: float,
    T: float,
    delta: float,
    threshold: float = ZERO_DISTANCE,
    seed: int = 0,
) -> Optional[WitnessPair]:
    """Directional search for two states with identical observed outputs.

    Only directions that cannot feed the observed outputs (states outside the
    observed nodes' reachable set in the inference graph) are tried; the
    first perturbation whose output distance stays below ``threshold`` is
    returned.  ``None`` means every tried perturbation was detected, or there
    was nothing to try; it is evidence, not a proof of observability.  The
    base point is integrated, and its outputs evaluated, once per search.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    graph = build_graph(sys, seed=seed)
    influencing = forward_closure(graph, obs.observed_states())
    hidden = [s for s in sys.states if s not in influencing]
    if not hidden:
        return None
    base = _normalize_x0(sys, base_point)
    run = _rk4_loop(sys, params, dt, T)
    traj = _integrate(run, sys, base, params, dt, T)
    outputs = _scalars(traj, obs.outputs)
    base_series = outputs(traj)
    for s in hidden:
        i = sys.state_index(s)
        for sign in (+1.0, -1.0):
            shifted = base.copy()
            shifted[i] += sign * delta
            distance = _output_distance(
                base_series, outputs(_integrate(run, sys, shifted, params, dt, T))
            )
            if distance < threshold:
                return WitnessPair(
                    x0_a=tuple(base),
                    x0_b=tuple(shifted),
                    output_distance=distance,
                    horizon=T,
                    direction=s.name,
                )
    return None


def trajectory_to_csv(traj: Trajectory) -> str:
    """CSV with a time column then one column per state, 17 significant digits."""
    header = "t," + ",".join(s.name for s in traj.states)
    lines = [header]
    for t, row in zip(traj.times, traj.values):
        lines.append(",".join("%.17g" % v for v in [t, *row]))
    return "\n".join(lines) + "\n"
