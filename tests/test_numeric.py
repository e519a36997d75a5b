import dis
import functools
import math
import operator
import random
import struct

import numpy as np
import pytest

import odeobs.numeric
from odeobs.expr import (
    Add, Const, Div, Exp, FloatPrinter, Ln, Mul, Neg, PowInt, Sym, children, parse_expr,
)
from odeobs.model import ObservationSet, parse_model, reduce_by_conserved, verify_all_conserved
from odeobs.numeric import (
    _ROW_BLOCK,
    EvaluationError,
    _scalar_function,
    compile_functions,
    conserved_drift,
    distinguishability,
    integrate_rk4,
    trajectory_to_csv,
    unobservability_witness,
)

from conftest import A, B, X, Y, Z, random_expr

SIR_PARAMS = {"beta": 0.0004, "lambda": 0.04}
SIR_X0 = (997.0, 3.0, 0.0)
LV_PARAMS = {"R": 2.0, "D": 1.0, "B": 1.0, "M": 1.0}
LV_X0 = (2.0, 1.0)  # off the stationary point (M/B, R/D) = (1, 2)


def obs_named(sys, label):
    return next(o for o in sys.observations if o.label == label)


def _tree_walk(e, point):
    """Reference float evaluation: a plain left-to-right tree walk."""
    kids = [_tree_walk(k, point) for k in children(e)]
    if isinstance(e, Const):
        return float(e.value)
    if isinstance(e, Sym):
        return point[e.symbol]
    if isinstance(e, Add):
        return functools.reduce(operator.add, kids)
    if isinstance(e, Mul):
        return functools.reduce(operator.mul, kids)
    if isinstance(e, Neg):
        return -kids[0]
    if isinstance(e, Div):
        return kids[0] / kids[1]
    if isinstance(e, PowInt):
        return kids[0] ** e.exponent
    return math.log(kids[0]) if isinstance(e, Ln) else math.exp(kids[0])


def _by_row(function, rows):
    """The values of a scalar function on each state row, as ``numeric._scalars`` reads rows."""
    return [function(*row) for row in rows]


def _reference_step(states, rhs, params, dt, x):
    """Reference classical RK4 step: the right-hand sides walked stage by stage."""
    def f(values):
        point = {**params, **dict(zip(states, values))}
        return [_tree_walk(e, point) for e in rhs]

    half = dt / 2.0
    k1 = f(x)
    k2 = f([xv + half * kv for xv, kv in zip(x, k1)])
    k3 = f([xv + half * kv for xv, kv in zip(x, k2)])
    k4 = f([xv + dt * kv for xv, kv in zip(x, k3)])
    return tuple(
        xv + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d) for xv, a, b, c, d in zip(x, k1, k2, k3, k4)
    )


class TestIntegrateRk4:
    def test_sir_against_reference_integrator(self, sir):
        # oracle: scipy RK45 at tight tolerance, written without the package
        from scipy.integrate import solve_ivp

        beta, lam = SIR_PARAMS["beta"], SIR_PARAMS["lambda"]

        def f(t, x):
            s, i, r = x
            return [-beta * s * i, beta * s * i - lam * i, lam * i]

        sol = solve_ivp(
            f, (0.0, 100.0), list(SIR_X0), rtol=1e-12, atol=1e-12, dense_output=True
        )
        mine = integrate_rk4(sir, SIR_X0, SIR_PARAMS, 0.01, 100.0)
        reference = sol.sol(100.0)
        assert np.max(np.abs((mine.values[-1] - reference) / reference)) < 1e-8
        # susceptible population decreases along the epidemic
        assert np.all(np.diff(mine.values[:, 0]) <= 0)

    def test_toy_exponential_solution(self, toy):
        # R(t) = R0 * e^(a t) exactly; check t = 1 at a fine step
        traj = integrate_rk4(toy, (2.0, 5.0), {"a": 1.0}, 1e-4, 1.0)
        expected = 2.0 * math.e
        assert abs(traj.values[-1][0] - expected) / expected < 1e-6

    def test_grid_shape(self, toy):
        traj = integrate_rk4(toy, (1.0, 1.0), {"a": 1.0}, 0.1, 1.0)
        assert len(traj.times) == 11
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(1.0)
        assert np.allclose(np.diff(traj.times), 0.1)

    def test_bad_step_rejected(self, toy):
        with pytest.raises(ValueError):
            integrate_rk4(toy, (1.0, 1.0), {"a": 1.0}, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate_rk4(toy, (1.0, 1.0), {"a": 1.0}, 2.0, 1.0)

    def test_divergence_truncates_with_flag(self, toy):
        # exponential growth leaves the float range before T = 20
        traj = integrate_rk4(toy, (1.0, 1.0), {"a": 80.0}, 0.1, 20.0)
        assert traj.diverged
        assert len(traj.times) < 201
        assert np.all(np.isfinite(traj.values))

    def test_missing_parameter_rejected(self, sir):
        with pytest.raises(KeyError):
            integrate_rk4(sir, SIR_X0, {"beta": 1.0}, 0.1, 1.0)

    def test_unknown_parameter_rejected(self, sir):
        with pytest.raises(KeyError, match="unknown parameter 'Q'"):
            integrate_rk4(sir, SIR_X0, {**SIR_PARAMS, "Q": 5.0}, 0.1, 1.0)

    def test_unknown_state_rejected(self, sir):
        x0 = {"S": 997.0, "I": 3.0, "R": 0.0, "Q": 5.0}
        with pytest.raises(KeyError, match="unknown state 'Q'"):
            integrate_rk4(sir, x0, SIR_PARAMS, 0.1, 1.0)

    def test_mapping_initial_state(self, sir):
        a = integrate_rk4(sir, SIR_X0, SIR_PARAMS, 0.1, 1.0)
        b = integrate_rk4(
            sir, {"S": 997.0, "I": 3.0, "R": 0.0}, SIR_PARAMS, 0.1, 1.0
        )
        assert np.array_equal(a.values, b.values)

    def test_negative_parameter_raised_to_a_power(self):
        # k^2 - k^3 with k = -2 is 12: the inlined literal keeps its sign under **
        sys = parse_model("model: p\nparams: k\nstates: x\ndx/dt = k^2 - k^3\n")
        traj = integrate_rk4(sys, (0.0,), {"k": -2.0}, 0.25, 1.0)
        assert traj.values[-1][0] == 12.0


def _reference_run(sys, x0, params, dt, steps):
    """Reference RK4 loop: one ``_reference_step`` per step, each row checked.

    Returns the rows up to the first non-finite one and whether the run
    stopped there; a stage error is raised as ``integrate_rk4`` names it.
    """
    point = {p: float(params[p.name]) for p in sys.params}
    rows = [tuple(x0)]
    for i in range(steps):
        try:
            x = _reference_step(sys.states, sys.rhs, point, dt, rows[-1])
        except OverflowError:
            return rows, True
        except ZeroDivisionError:
            raise EvaluationError(i * dt, "division by zero") from None
        except ValueError as exc:
            raise EvaluationError(i * dt, str(exc)) from None
        if not all(map(math.isfinite, x)):
            return rows, True
        rows.append(x)
    return rows, False


class TestBlockLoop:
    """``integrate_rk4`` runs ``_ROW_BLOCK`` steps per call of the generated loop.

    The loop writes every row it computes into the trajectory array and
    checks none; ``integrate_rk4`` then checks the block's rows for
    finiteness.  A per-step loop that checks each row must give the same
    rows, the same truncation point and the same error.
    """

    DT = 2.0**-6  # every grid time below is exact

    def _model(self, rhs):
        lines = ["model: m", "params: a", "states: x, y"]
        return parse_model("\n".join(lines + [f"d{s}/dt = {rhs[s]}" for s in "xy"]) + "\n")

    def _clocked(self, rhs):
        """A model whose first state is the time (ds/dt = 1), so an event can be placed at a step."""
        lines = ["model: m", "params: a", "states: s, x, y", "ds/dt = 1"]
        return parse_model("\n".join(lines + [f"d{v}/dt = {rhs[v]}" for v in "xy"]) + "\n")

    def _overflowing_sum(self, row):
        """Rate ``a`` for which dx/dt = a*s first gives a non-finite row at index ``row``.

        The step to row j sums k1 + 2*k2 + 2*k3 + k4 = a*(6*j - 3)*dt, which
        overflows with every stage input finite.
        """
        return float(np.finfo(float).max) / ((6 * row - 6) * self.DT)

    def _same_as_reference(self, sys, x0, params, dt, steps):
        traj = integrate_rk4(sys, x0, params, dt, steps * dt)
        rows, diverged = _reference_run(sys, x0, params, dt, steps)
        assert traj.values.tobytes() == np.array(rows).tobytes()
        assert traj.diverged == diverged
        assert np.array_equal(traj.times, np.arange(len(rows)) * dt)
        return traj

    def test_partial_last_block_matches_a_per_step_loop(self, lv):
        steps = 3 * _ROW_BLOCK + 17
        traj = self._same_as_reference(lv, LV_X0, LV_PARAMS, self.DT, steps)
        assert not traj.diverged and len(traj.times) == steps + 1

    @pytest.mark.parametrize(
        "rhs",
        [
            {"x": "a*x*y", "y": "x*y"},  # a product reaches inf: the non-finite row
            {"x": "a*x^3", "y": "x"},  # a float power overflows: OverflowError
        ],
    )
    def test_divergence_past_the_first_block_truncates_where_a_per_step_loop_does(self, rhs):
        sys = self._model(rhs)
        traj = self._same_as_reference(sys, (0.5, 0.5), {"a": 1.0}, 2.0**-9, 8 * _ROW_BLOCK)
        assert traj.diverged and _ROW_BLOCK + 1 < len(traj.times) < 8 * _ROW_BLOCK

    @pytest.mark.parametrize(
        "rhs, message",
        [
            # x reaches 0 exactly on the grid, a pole of dy/dt
            ({"x": "-a", "y": "1/x"}, "division by zero"),
            # x goes negative inside a stage, and dy/dt takes its ln
            ({"x": "-a", "y": "ln(x)"}, "math domain error"),
        ],
    )
    def test_stage_error_past_the_first_block_names_the_same_time(self, rhs, message):
        sys = self._model(rhs)
        x0 = ((_ROW_BLOCK + 40) * self.DT, 0.0)
        steps = 2 * _ROW_BLOCK
        with pytest.raises(EvaluationError) as expected:
            _reference_run(sys, x0, {"a": 1.0}, self.DT, steps)
        with pytest.raises(EvaluationError) as got:
            integrate_rk4(sys, x0, {"a": 1.0}, self.DT, steps * self.DT)
        assert (got.value.t, str(got.value)) == (expected.value.t, str(expected.value))
        assert got.value.reason == message and got.value.t > _ROW_BLOCK * self.DT

    @pytest.mark.parametrize(
        "row", [_ROW_BLOCK, _ROW_BLOCK + 1], ids=["last_of_block", "first_of_block"]
    )
    def test_non_finite_row_at_a_block_edge_truncates_there(self, row):
        sys = self._clocked({"x": "a*s", "y": "-y"})
        params = {"a": self._overflowing_sum(row)}
        traj = self._same_as_reference(sys, (0.0, 0.0, 1.0), params, self.DT, 3 * _ROW_BLOCK)
        assert traj.diverged and len(traj.times) == row

    def test_non_finite_row_wins_over_a_later_stage_error_in_its_block(self):
        # x = inf at row 356; the next step takes ln(1/inf) = ln(0), in the same block
        row = _ROW_BLOCK + 100
        sys = self._clocked({"x": "a*s", "y": "ln(1/x)"})
        params = {"a": self._overflowing_sum(row)}
        traj = self._same_as_reference(sys, (0.0, 1.0, 0.0), params, self.DT, 3 * _ROW_BLOCK)
        assert traj.diverged and len(traj.times) == row
        point, last = {sys.params[0]: params["a"]}, tuple(traj.values[-1].tolist())
        non_finite = _reference_step(sys.states, sys.rhs, point, self.DT, last)
        assert non_finite[1] == math.inf
        with pytest.raises(ValueError, match="math domain error"):
            _reference_step(sys.states, sys.rhs, point, self.DT, non_finite)

    def test_overflow_error_in_the_middle_of_a_block_truncates_there(self):
        # exp(a*s) leaves the float range first at the last stage of the step to row 384
        row = _ROW_BLOCK + _ROW_BLOCK // 2
        sys = self._clocked({"x": "exp(a*s)/(1 + exp(a*s))", "y": "-y"})
        params = {"a": math.log(np.finfo(float).max) / ((row - 0.25) * self.DT)}
        traj = self._same_as_reference(sys, (0.0, 0.0, 1.0), params, self.DT, 3 * _ROW_BLOCK)
        assert traj.diverged and len(traj.times) == row
        assert np.all(np.isfinite(traj.values))
        point, last = {sys.params[0]: params["a"]}, tuple(traj.values[-1].tolist())
        with pytest.raises(OverflowError):
            _reference_step(sys.states, sys.rhs, point, self.DT, last)

    def test_finite_row_whose_sum_overflows_is_not_divergence(self):
        sys = self._model({"x": "a*y", "y": "a*x"})
        steps = _ROW_BLOCK + 3
        traj = self._same_as_reference(sys, (1e308, 1e308), {"a": 0.0}, self.DT, steps)
        assert not traj.diverged and len(traj.times) == steps + 1
        assert np.all(traj.values == 1e308)


class TestCompiledPrograms:
    SYMS = parse_model("model: s\nparams: k\nstates: x, y\ndx/dt = x\ndy/dt = y\n")

    def _exprs(self, texts):
        return [parse_expr(t, self.SYMS.symbol_table()) for t in texts]

    def _function(self, *texts):
        printer = FloatPrinter(self._exprs(texts), {self.SYMS.params[0]: 0.5})
        return _scalar_function(printer, self.SYMS.states)

    def test_equal_subtrees_built_apart_are_computed_once(self):
        f = self._function("ln(x + 1)*y - k", "y/ln(x + 1)", "ln(x + 1)")
        logs = [i for i in dis.get_instructions(f) if i.argval == "log"]
        assert len(logs) == 1
        assert _by_row(f, [[math.e - 1.0, 2.0]]) == [(1.5, 2.0, 1.0)]
        with pytest.raises(ZeroDivisionError):
            _by_row(f, [[math.e - 1.0, 2.0], [0.0, 3.0]])  # ln(0 + 1) = 0 is a pole of y/ln(x + 1)

    def test_names_bind_in_printing_order(self):
        # x^2 first occurs inside the first factor, then as the last factor
        f = self._function("ln(x^2 + 1)*y*x^2", "x^2")
        assert _by_row(f, [[1.0, 2.0]]) == [(math.log(2.0) * 2.0, 1.0)]

    def test_zero_checks_do_not_count_as_uses(self):
        # a denominator read once is printed inline, one read twice is bound
        once = self._function("y/(x + 1)")
        assert not [n for n in once.__code__.co_varnames if n.startswith("c")]
        assert _by_row(once, [[1.0, 3.0]]) == [(1.5,)]
        twice = self._function("y/(x + 1)", "(x + 1)*y")
        assert "c0" in twice.__code__.co_varnames
        step = compile_functions(
            self.SYMS.states, self._exprs(["y/(x + 1)", "-x"]), {self.SYMS.params[0]: 0.5}, 0.5
        )
        assert not [n for n in step.__code__.co_varnames if n.startswith("c")]

    def test_row_program_values(self):
        f = self._function("x*y - k", "-x", "y^2/x")
        assert _by_row(f, [[1.0, 2.0], [4.0, 0.5]]) == [(1.5, -1.0, 4.0), (1.5, -4.0, 0.0625)]

    def test_one_state_step_returns_a_one_tuple(self):
        sys = parse_model("model: d\nparams: a\nstates: x\ndx/dt = -a*x\n")
        run = compile_functions(sys.states, sys.rhs, {sys.params[0]: 1.0}, 0.5)
        buf = bytearray(16)
        # one step writes one 8-byte row at the offset it is given
        assert run(1.0, 1, struct.Struct("d").pack_into, buf, 8) == (16, None)
        assert buf[:8] == bytes(8)
        (x,) = struct.unpack_from("d", buf, 8)
        # classical RK4 for x' = -x over h = 1/2: 1 - h + h^2/2 - h^3/6 + h^4/24
        assert x == pytest.approx(1 - 0.5 + 0.125 - 0.125 / 6 + 0.0625 / 24, rel=1e-15)

    def test_step_matches_a_tree_walk_bit_for_bit(self):
        # random right-hand sides share subtrees by chance and negative
        # parameters sit under powers; a failing step must raise what the
        # walk raises, with the same text
        rng = random.Random(7)
        outcomes = set()
        pack, buf = struct.Struct("3d").pack_into, bytearray(24)
        for _ in range(300):
            rhs = [random_expr(rng, depth=4, allow_ln=True) for _ in range(3)]
            params = {A: rng.choice([0.5, -1.5]), B: rng.choice([2.0, -0.25])}
            # -1 and -2 are poles of the random denominators (symbol + 1..5)
            x = tuple(rng.choice([-1.0, -2.0, rng.uniform(-2.0, 2.0)]) for _ in range(3))
            run = compile_functions((X, Y, Z), rhs, params, 0.01)
            for _ in range(3):
                try:
                    expected = _reference_step((X, Y, Z), rhs, params, 0.01, x)
                except (ArithmeticError, ValueError) as exc:
                    # the error is returned, with the offset of the rows written before it
                    offset, error = run(*x, 1, pack, buf, 0)
                    assert offset == 0 and type(error) is type(exc) and str(error) == str(exc)
                    outcomes.add(type(exc).__name__)
                    break
                assert run(*x, 1, pack, buf, 0) == (24, None)
                got = struct.unpack_from("3d", buf)
                assert [v.hex() for v in got] == [v.hex() for v in expected]
                if not all(map(math.isfinite, got)):
                    # a non-finite row is written like any other; integrate_rk4 stops at it
                    outcomes.add("diverged")
                    break
                outcomes.add("ok")
                x = got
        assert {"ok", "ZeroDivisionError", "OverflowError", "diverged"} <= outcomes

    def test_non_finite_parameter_is_a_value(self, toy):
        traj = integrate_rk4(toy, (1.0, 1.0), {"a": math.inf}, 0.1, 1.0)
        assert traj.diverged and len(traj.times) == 1

    def test_unbound_symbol_rejected(self):
        with pytest.raises(KeyError, match="unbound symbol 'k'"):
            compile_functions(self.SYMS.states, self._exprs(["k*x"]), {}, 0.1)


class TestConservedDrift:
    def test_sir_population_drift_tiny(self, sir):
        traj = integrate_rk4(sir, SIR_X0, SIR_PARAMS, 0.01, 100.0)
        assert conserved_drift(traj, sir.conserved[0]) < 1e-6

    def test_toy_linear_drift_roundoff(self, toy):
        traj = integrate_rk4(toy, (2.0, 5.0), {"a": 1.0}, 1e-4, 1.0)
        assert conserved_drift(traj, toy.conserved[0]) < 1e-9

    def test_non_conserved_quantity_drifts(self, sir):
        from odeobs.model import ConservedQuantity

        traj = integrate_rk4(sir, SIR_X0, SIR_PARAMS, 0.01, 100.0)
        bogus = ConservedQuantity(parse_expr("S + I", sir.symbol_table()), "B0")
        assert conserved_drift(traj, bogus) > 100.0  # most of the epidemic recovers

    def test_lv_drift_is_fourth_order_in_dt(self, lv):
        # the logarithmic invariant is nonlinear, so its drift tracks the
        # integrator's truncation error: halving dt contracts it ~16x
        d_coarse = conserved_drift(
            integrate_rk4(lv, LV_X0, LV_PARAMS, 0.02, 20.0), lv.conserved[0]
        )
        d_fine = conserved_drift(
            integrate_rk4(lv, LV_X0, LV_PARAMS, 0.01, 20.0), lv.conserved[0]
        )
        assert d_coarse / d_fine >= 12.0
        assert d_coarse / d_fine == pytest.approx(16.0, rel=0.25)

    def test_linear_invariants_sit_at_roundoff(self, sir):
        # every Runge-Kutta step preserves linear first integrals exactly,
        # so this drift is float noise and does not scale with dt^4
        traj = integrate_rk4(sir, SIR_X0, SIR_PARAMS, 0.01, 100.0)
        assert conserved_drift(traj, sir.conserved[0]) < 1e-8

    def test_pole_in_a_quantity_raises_instead_of_inf(self, toy):
        traj = integrate_rk4(toy, (2.0, 5.0), {"a": 0.0}, 0.1, 1.0)
        with pytest.raises(ZeroDivisionError):
            conserved_drift(traj, parse_expr("R + 1/(S - 5)", toy.symbol_table()))


class TestReductionPreservesDynamics:
    def test_sir_reduced_trajectories_match_on_level_set(self, sir):
        rng = random.Random(103)
        verified, _ = verify_all_conserved(sir)
        red = reduce_by_conserved(verified, verified.conserved[0], sir.state_named("I"))
        for _ in range(3):
            s0 = rng.uniform(200.0, 900.0)
            i0 = rng.uniform(1.0, 90.0)
            r0 = rng.uniform(0.0, 50.0)
            level = s0 + i0 + r0
            x0 = (s0, i0, r0)
            base = integrate_rk4(sir, x0, SIR_PARAMS, 0.01, 20.0)
            reduced = integrate_rk4(
                red, x0, {**SIR_PARAMS, "N": level}, 0.01, 20.0
            )
            assert np.max(np.abs(base.values - reduced.values)) < 1e-6


class TestDistinguishability:
    def test_recovered_shift_invisible_from_infected(self, sir):
        # R never feeds dS/dt or dI/dt, so the outputs coincide exactly
        pair = distinguishability(
            sir,
            obs_named(sir, "I"),
            SIR_X0,
            (997.0, 3.0, 5.0),
            SIR_PARAMS,
            0.01,
            10.0,
        )
        assert pair.output_distance == 0.0

    def test_recovered_shift_visible_when_observed(self, sir):
        pair = distinguishability(
            sir,
            obs_named(sir, "R"),
            SIR_X0,
            (997.0, 3.0, 5.0),
            SIR_PARAMS,
            0.01,
            10.0,
        )
        assert pair.output_distance >= 5.0

    def test_toy_hidden_initial_drain(self, toy):
        # observing R says nothing about S0
        pair = distinguishability(
            toy, obs_named(toy, "R"), (2.0, 5.0), (2.0, 9.0), {"a": 1.0}, 0.01, 5.0
        )
        assert pair.output_distance == 0.0

    def test_nan_output_reads_infinitely_far(self):
        # inf - inf on the whole grid: the observed y differ by 1e100, so the
        # pair must not read as indistinguishable
        sys = parse_model("model: flat\nparams: k\nstates: y, z\ndy/dt = k\ndz/dt = k\n")
        obs = ObservationSet((parse_expr("y*y*y*y - y*y*y*y", sys.symbol_table()),), "y4")
        pair = distinguishability(
            sys, obs, (1e100, 1.0), (1.0, 1.0), {"k": 0.0}, 0.1, 1.0
        )
        assert pair.output_distance == math.inf

    def test_both_outputs_starting_at_inf_read_infinitely_far(self, toy):
        # inf - inf in the subtraction itself must not leak a RuntimeWarning
        pair = distinguishability(
            toy, obs_named(toy, "R"), (math.inf, 1.0), (math.inf, 2.0), {"a": 1.0}, 0.1, 1.0
        )
        assert pair.output_distance == math.inf

    def test_pole_in_an_output_raises(self, toy):
        obs = ObservationSet((parse_expr("R/(S - 5)", toy.symbol_table()),), "pole")
        with pytest.raises(ZeroDivisionError):
            distinguishability(toy, obs, (2.0, 5.0), (2.0, 6.0), {"a": 0.0}, 0.1, 1.0)


class TestUnobservabilityWitness:
    def test_base_trajectory_integrated_once_per_search(self, monkeypatch):
        # x2..x4 never feed x1, so six directions are tried; threshold 0
        # rejects every one of them
        chain = parse_model(
            "model: c\nparams: k\nstates: x1, x2, x3, x4\n"
            "dx1/dt = -k*x1\ndx2/dt = k*x1 - k*x2\ndx3/dt = k*x2 - k*x3\n"
            "dx4/dt = k*x3\nobserve up: x1\n"
        )
        calls = []
        original = odeobs.numeric._integrate

        def counting(*args, **kwargs):
            calls.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(odeobs.numeric, "_integrate", counting)
        witness = unobservability_witness(
            chain, chain.observations[0], (1.0, 1.0, 1.0, 1.0), {"k": 1.0}, 0.1, 2.0, 0.5,
            threshold=0.0,
        )
        assert witness is None
        assert len(calls) == 1 + 6
        assert list(calls[0]) == [1.0, 1.0, 1.0, 1.0]

    def test_nan_output_is_never_a_witness(self):
        sys = parse_model("model: flat\nparams: k\nstates: y, z\ndy/dt = k\ndz/dt = k\n")
        obs = ObservationSet((parse_expr("y*y*y*y - y*y*y*y", sys.symbol_table()),), "y4")
        witness = unobservability_witness(
            sys, obs, (1e100, 1.0), {"k": 0.0}, 0.1, 1.0, 0.5
        )
        assert witness is None

    def test_sir_infected_observer_misses_recovered_direction(self, sir):
        witness = unobservability_witness(
            sir, obs_named(sir, "I"), SIR_X0, SIR_PARAMS, 0.01, 10.0, 5.0
        )
        assert witness is not None
        assert witness.direction == "R"
        assert witness.output_distance < 1e-12

    def test_sir_recovered_observer_finds_none(self, sir):
        witness = unobservability_witness(
            sir, obs_named(sir, "R"), SIR_X0, SIR_PARAMS, 0.01, 10.0, 5.0
        )
        assert witness is None

    def test_lv_predator_observer_finds_none(self, lv):
        witness = unobservability_witness(
            lv, obs_named(lv, "m"), LV_X0, LV_PARAMS, 0.01, 10.0, 0.5
        )
        assert witness is None

    def test_rank_deficiency_on_fixtures_has_witness_and_full_rank_does_not(
        self, sir, toy
    ):
        # cross-check between the rank verdicts and the empirical search
        cases = [
            (sir, "I", SIR_X0, SIR_PARAMS, 5.0, True),
            (sir, "R", SIR_X0, SIR_PARAMS, 5.0, False),
            (toy, "R", (2.0, 5.0), {"a": 1.0}, 1.0, True),
            (toy, "S", (2.0, 5.0), {"a": 1.0}, 1.0, False),
        ]
        from odeobs.embedding import observability_verdict

        for sys, label, x0, params, delta, expect_witness in cases:
            verdict = observability_verdict(sys, obs_named(sys, label), seed=0)
            witness = unobservability_witness(
                sys, obs_named(sys, label), x0, params, 0.01, 10.0, delta
            )
            assert (witness is not None) == expect_witness
            assert verdict.observable == (witness is None)


class TestCsv:
    def test_header_and_precision(self, sir):
        traj = integrate_rk4(sir, SIR_X0, SIR_PARAMS, 0.5, 1.0)
        text = trajectory_to_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,S,I,R"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == 997.0
        # 17 significant digits survive a float round trip
        reparsed = [float(v) for v in lines[-1].split(",")]
        assert reparsed[1:] == list(traj.values[-1])
