"""Command-line front end.

Subcommands::

    odeobs analyze  <model> [--seed N] [--k auto|N] [--trials N] [--json PATH]
    odeobs graph    <model> [--reduce LEVEL:VAR] [--dot PATH]
    odeobs verify   <model> [--seed N]
    odeobs simulate <model> --x0 V,V,... --params k=v,... --dt F --T F [--csv PATH]

Exit codes: 0 success (verdicts, including "insufficient", are data);
1 input error; 2 analysis error; 3 a declared conserved quantity was refuted.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys as _sys
from typing import List, Optional

from .embedding import AUTO_ORDER, DEFAULT_TRIALS, AllPointsDegenerateError
from .expr import ExprError
from .graph import build_graph, export_dot, scc_condensation
from .linalg import SingularMatrixError
from .model import (
    ModelError,
    OdeSystem,
    load_model,
    reduce_by_conserved,
    verify_all_conserved,
    verify_conserved,
)
from .numeric import EvaluationError, conserved_drift, integrate_rk4, trajectory_to_csv
from .report import build_report, render_text, report_to_json

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ANALYSIS = 2
EXIT_REFUTED = 3


class _InputError(Exception):
    pass


def _load(path: str) -> OdeSystem:
    try:
        return load_model(path)
    except OSError as exc:
        raise _InputError(f"cannot read model file: {exc}") from exc
    except (ModelError, ExprError) as exc:
        raise _InputError(f"model parse error: {exc}") from exc


def _write(path: str, text: str, mode: str = "w") -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_writable(path: Optional[str]) -> None:
    """Fail before the work, not after it, when ``path`` cannot be written.

    Opening for appending creates a missing file and truncates nothing.
    """
    if path:
        _write(path, "", "a")


def _parse_k(text: str):
    if text == AUTO_ORDER:
        return AUTO_ORDER
    try:
        value = int(text)
    except ValueError:
        raise _InputError(f"--k expects an integer or 'auto', got {text!r}") from None
    if value < 0:
        raise _InputError("--k must be non-negative")
    return value


def cmd_analyze(args: argparse.Namespace) -> int:
    sys_model = _load(args.model)
    k = _parse_k(args.k)
    if args.trials < 1:
        raise _InputError(f"--trials must be at least 1, got {args.trials}")
    _check_writable(args.json)
    report = build_report(sys_model, seed=args.seed, k=k, trials=args.trials)
    if args.json:
        _write(args.json, report_to_json(report))
    _sys.stdout.write(render_text(report))
    return EXIT_OK


def cmd_graph(args: argparse.Namespace) -> int:
    sys_model = _load(args.model)
    _check_writable(args.dot)
    if args.reduce:
        level, sep, var_name = args.reduce.partition(":")
        if not sep or not level or not var_name:
            raise _InputError("--reduce expects LEVEL:VAR")
        try:
            quantity = sys_model.conserved_named(level)
            var = sys_model.state_named(var_name)
        except (ModelError, ExprError) as exc:
            raise _InputError(str(exc)) from exc
        verdict = verify_conserved(sys_model, quantity, seed=args.seed)
        if verdict.status == "refuted":
            _sys.stderr.write(f"conserved quantity {level} is refuted; not reducing\n")
            return EXIT_REFUTED
        quantity = quantity.with_verified(verdict.status)
        sys_model = reduce_by_conserved(sys_model, quantity, var)
    graph = build_graph(sys_model, seed=args.seed)
    condensation = scc_condensation(graph)
    dot = export_dot(graph, condensation)
    if args.dot:
        _write(args.dot, dot)
    else:
        _sys.stdout.write(dot)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    sys_model = _load(args.model)
    _, verdicts = verify_all_conserved(sys_model, seed=args.seed)
    any_refuted = False
    for quantity, verdict in zip(sys_model.conserved, verdicts):
        line = f"{quantity.level_name} = {quantity.expr}: {verdict.status}"
        if verdict.status == "refuted":
            any_refuted = True
            if verdict.witness:
                witness = sorted(verdict.witness.items(), key=lambda kv: kv[0].name)
                line += " (witness " + ", ".join(f"{s.name}={v}" for s, v in witness) + ")"
        _sys.stdout.write(line + "\n")
    if not sys_model.conserved:
        _sys.stdout.write("(no conserved quantities declared)\n")
    return EXIT_REFUTED if any_refuted else EXIT_OK


def _parse_x0(text: str, n: int) -> List[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise _InputError(f"--x0 expects {n} comma-separated values, got {len(parts)}")
    try:
        x0 = [float(p) for p in parts]
    except ValueError as exc:
        raise _InputError(f"bad --x0 value: {exc}") from None
    for value in x0:
        if not math.isfinite(value):
            raise _InputError(f"--x0 values must be finite numbers, got {value}")
    return x0


def _parse_params(text: str) -> dict:
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        name, sep, value = chunk.partition("=")
        if not sep:
            raise _InputError(f"--params expects name=value pairs, got {chunk!r}")
        name = name.strip()
        if name in out:
            raise _InputError(f"--params gives {name} more than once")
        try:
            out[name] = float(value)
        except ValueError:
            raise _InputError(f"bad parameter value in {chunk!r}") from None
        if not math.isfinite(out[name]):
            raise _InputError(f"parameter {name} must be a finite number, got {out[name]}")
    return out


def cmd_simulate(args: argparse.Namespace) -> int:
    sys_model = _load(args.model)
    x0 = _parse_x0(args.x0, sys_model.n)
    params = _parse_params(args.params)
    for flag, value in (("--dt", args.dt), ("--T", args.T)):
        if not math.isfinite(value):
            raise _InputError(f"{flag} must be a finite number, got {value}")
    if args.dt <= 0 or args.T < args.dt:
        raise _InputError("need dt > 0 and T >= dt")
    # the trajectory holds n float64 values per step, and numpy indexes at
    # most sys.maxsize bytes
    size = args.T / args.dt * sys_model.n * 8
    if not size < _sys.maxsize:
        raise _InputError(
            f"--T {args.T} over --dt {args.dt} is more steps than an array can index"
        )
    _check_writable(args.csv)
    try:
        traj = integrate_rk4(sys_model, x0, params, args.dt, args.T)
    except KeyError as exc:
        raise _InputError(exc.args[0]) from exc
    except MemoryError:
        raise _InputError(
            f"--T {args.T} over --dt {args.dt} needs a {size:.3g}-byte trajectory, "
            "more memory than can be allocated"
        ) from None
    except EvaluationError as exc:
        _sys.stderr.write(f"integration failed: {exc}\n")
        return EXIT_ANALYSIS
    if args.csv:
        _write(args.csv, trajectory_to_csv(traj))
    _sys.stdout.write(
        f"integrated {sys_model.name}: {len(traj.times)} points, "
        f"dt={args.dt}, T={args.T}\n"
    )
    if traj.diverged:
        _sys.stdout.write("divergence: trajectory left the finite range; truncated\n")
    for quantity in sys_model.conserved:
        try:
            drift = conserved_drift(traj, quantity)
        except (ArithmeticError, ValueError) as exc:  # a pole, an overflow, ln of x <= 0
            _sys.stdout.write(f"drift {quantity.level_name}: not evaluable ({exc})\n")
            continue
        _sys.stdout.write(f"drift {quantity.level_name}: {drift:.3e}\n")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept: building it takes
    about a millisecond, a large share of a small ``analyze``.  Parsing
    leaves it unchanged, so each call starts from the defaults."""
    parser = argparse.ArgumentParser(
        prog="odeobs",
        description="Observability analysis for ODE models with conserved quantities",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("model", help="path to a .model file")
    common.add_argument("--seed", type=int, default=0, help="seed for all randomized steps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", parents=[common], help="full analysis report")
    p_analyze.add_argument("--k", default=AUTO_ORDER, help="embedding order (int or 'auto')")
    p_analyze.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="rank sampling trials")
    p_analyze.add_argument("--json", help="write the JSON report here")
    p_analyze.set_defaults(func=cmd_analyze)

    p_graph = sub.add_parser("graph", parents=[common], help="export the inference graph")
    p_graph.add_argument("--reduce", help="LEVEL:VAR conserved reduction before export")
    p_graph.add_argument("--dot", help="write DOT here (default: stdout)")
    p_graph.set_defaults(func=cmd_graph)

    p_verify = sub.add_parser("verify", parents=[common], help="check conserved quantities")
    p_verify.set_defaults(func=cmd_verify)

    p_sim = sub.add_parser("simulate", parents=[common], help="fixed-step RK4 run")
    p_sim.add_argument("--x0", required=True, help="comma-separated initial state")
    p_sim.add_argument("--params", default="", help="comma-separated name=value pairs")
    p_sim.add_argument("--dt", type=float, required=True)
    p_sim.add_argument("--T", type=float, required=True)
    p_sim.add_argument("--csv", help="write the trajectory CSV here")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _InputError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT
    except (ModelError, ExprError) as exc:
        _sys.stderr.write(f"analysis error: {exc}\n")
        return EXIT_ANALYSIS
    except AllPointsDegenerateError as exc:
        _sys.stderr.write(f"analysis error: rank sampling: {exc}\n")
        return EXIT_ANALYSIS
    except SingularMatrixError as exc:
        _sys.stderr.write(f"analysis error: elimination: {exc}\n")
        return EXIT_ANALYSIS
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_ANALYSIS


if __name__ == "__main__":
    raise SystemExit(main())
