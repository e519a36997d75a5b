"""Acceptance suite: one test per shipped guarantee, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Everything here pins exact integer/structural outcomes on the
four bundled models plus the randomized-oracle and determinism guarantees.
"""

import json
import random
from fractions import Fraction

from odeobs import linalg
from odeobs.cli import main as cli_main
from odeobs.conserved import (
    ConservedSet,
    Partition,
    alternative_observables,
    exchange_conditions,
    partition_jacobians,
)
from odeobs.embedding import (
    build_embedding,
    generic_rank,
    jacobian,
    observability_verdict,
    rank_at_point,
)
from odeobs.expr import Const, Symbol, add, mul, parse_expr, sym
from odeobs.graph import (
    build_graph,
    graphical_observable,
    minimal_sensor_sets,
    scc_condensation,
)
from odeobs.model import (
    ConservedQuantity,
    ObservationSet,
    OdeSystem,
    reduce_by_conserved,
    verify_all_conserved,
    verify_conserved,
)
from odeobs.numeric import conserved_drift, integrate_rk4, unobservability_witness

from conftest import mat_mul, model_path


def obs_named(sys, label):
    return next(o for o in sys.observations if o.label == label)


def _passed(n, message):
    print(f"ACCEPTANCE {n}: PASS - {message}")


def test_01_sir_graphical_menu_and_insufficiency(sir):
    menu = minimal_sensor_sets(scc_condensation(build_graph(sir)))
    assert [s.names() for s in menu.sets] == [("R",)]
    verdict = graphical_observable(
        scc_condensation(build_graph(sir)), [sir.state_named("I")]
    )
    assert not verdict.sufficient
    _passed(1, "SIR minimal sensor menu is exactly {R}; {I} is insufficient")


def test_02_sir_rank_full_and_degenerate_locus(sir):
    emb = build_embedding(sir, obs_named(sir, "R"), 2)
    jac = jacobian(emb, sir)
    verdict = generic_rank(jac, seed=0)
    assert verdict.generic_rank == 3
    point = {
        sir.state_named("S"): Fraction(11),
        sir.state_named("I"): Fraction(0),
        sir.state_named("R"): Fraction(2),
        sir.params[0]: Fraction(2, 5),
        sir.params[1]: Fraction(3),
    }
    assert rank_at_point(jac, point) <= 2
    _passed(2, "SIR observing R: generic rank 3; rank at I=0 drops to <= 2")


def test_03_sir_infected_alone_rank_two(sir):
    emb = build_embedding(sir, obs_named(sir, "I"), 2)
    verdict = generic_rank(jacobian(emb, sir), seed=0)
    assert verdict.generic_rank == 2
    _passed(3, "SIR observing I without the conserved transform: generic rank 2")


def test_04_sir_alternative_single_sensors(sir):
    verified, _ = verify_all_conserved(sir)
    search = alternative_observables(
        verified, ConservedSet(verified.conserved), [sir.state_named("R")], seed=0
    )
    assert search.positive_sets() == (("S",), ("I",))
    for result in search.positives():
        assert result.assessment.rank.generic_rank == 3
        assert result.assessment.rank.confidence == "exact"
    _passed(4, "SIR conserved population makes {I} and {S} single sensors at rank 3")


def test_05_mm_sensor_menus_across_reductions(mm):
    verified, _ = verify_all_conserved(mm)

    def menu_of(sys):
        return [s.names() for s in minimal_sensor_sets(scc_condensation(build_graph(sys))).sets]

    assert menu_of(verified) == [("p",)]
    red_e = reduce_by_conserved(verified, verified.conserved_named("E0"), mm.state_named("e"))
    assert menu_of(red_e) == [("e", "p")]
    red_c_of_e = reduce_by_conserved(verified, verified.conserved_named("E0"), mm.state_named("c"))
    assert menu_of(red_c_of_e) == [("c", "p")]
    red_sc = reduce_by_conserved(verified, verified.conserved_named("S0"), mm.state_named("c"))
    assert menu_of(red_sc) == [("c",)]
    red_ss = reduce_by_conserved(verified, verified.conserved_named("S0"), mm.state_named("s"))
    assert menu_of(red_ss) == [("s",)]
    red_e_verified, _ = verify_all_conserved(red_e)
    red_both = reduce_by_conserved(
        red_e_verified, red_e_verified.conserved_named("S0"), mm.state_named("c")
    )
    condensation = scc_condensation(build_graph(red_both))
    assert len(condensation.roots) == 2
    assert menu_of(red_both) == [("c", "e")]
    _passed(5, "MM menus: {p}; {e,p}/{c,p}; {c} or {s}; double reduction needs two sensors")


def test_06_mm_joint_exchange_condition_fails(mm):
    verified, _ = verify_all_conserved(mm)
    g = ConservedSet(verified.conserved)
    p = Partition(
        r_vars=(mm.state_named("s"), mm.state_named("p")),
        s_vars=(mm.state_named("e"), mm.state_named("c")),
    )
    cond = exchange_conditions(partition_jacobians(g, p), seed=0)
    assert cond.dr_rank.generic_rank == 1
    assert cond.dr_required == 2
    assert not cond.dr_full_rank
    _passed(6, "MM joint conservation against (e, c): dG/dr rank 1 < 2, condition fails")


def test_07_toy_ranks_and_alternative(toy):
    v_r = observability_verdict(toy, obs_named(toy, "R"), seed=0)
    v_s = observability_verdict(toy, obs_named(toy, "S"), seed=0)
    assert v_r.rank.generic_rank == 1
    assert v_s.rank.generic_rank == 2
    verified, _ = verify_all_conserved(toy)
    search = alternative_observables(
        verified, ConservedSet(verified.conserved), [toy.state_named("S")], seed=0
    )
    assert search.positive_sets() == (("R",),)
    assert search.positives()[0].assessment.rank.generic_rank == 2
    _passed(7, "toy system: ranks 1 (R) and 2 (S); conserved sum makes {R} sufficient")


def test_08_lv_ranks_degeneracies_and_no_new_sensors(lv):
    params = dict(zip(lv.params, (Fraction(2), Fraction(1), Fraction(1), Fraction(3))))
    for label, zero_state in (("r", "r"), ("m", "m")):
        verdict = observability_verdict(lv, obs_named(lv, label), seed=0)
        assert verdict.rank.generic_rank == 2
        emb = build_embedding(lv, obs_named(lv, label), 1)
        jac = jacobian(emb, lv)
        point = {
            lv.state_named("r"): Fraction(0 if zero_state == "r" else 5),
            lv.state_named("m"): Fraction(0 if zero_state == "m" else 5),
            **params,
        }
        assert rank_at_point(jac, point) < 2
    verdict = verify_conserved(lv, lv.conserved[0])
    assert verdict.status == "exact"
    verified, _ = verify_all_conserved(lv)
    for known in ("r", "m"):
        search = alternative_observables(
            verified, ConservedSet(verified.conserved), [lv.state_named(known)], seed=0
        )
        assert search.positive_sets() == ()
    _passed(8, "LV: rank 2 from either species, degenerate at zero loci, exact log invariant, no new sensor sets")


def test_09_conserved_verification_suite(sir, mm, toy, lv):
    expectations = [
        (sir, "N"),
        (mm, "E0"),
        (mm, "S0"),
        (toy, "Q0"),
        (lv, "Q0"),
    ]
    for sys, level in expectations:
        verdict = verify_conserved(sys, sys.conserved_named(level))
        assert verdict.status == "exact", (sys.name, level)
    bogus = ConservedQuantity(parse_expr("S + I", sir.symbol_table()), "W")
    refuted = verify_conserved(sir, bogus)
    assert refuted.status == "refuted" and refuted.witness is not None
    _passed(9, "all five declared invariants verify exact; S+I is refuted with a witness")


def test_10_linear_systems_match_power_stack_rank():
    rng = random.Random(211)
    checked = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        states = tuple(Symbol(f"x{i}", "state") for i in range(n))
        a = [[Fraction(rng.randint(-15, 15), 3) for _ in range(n)] for _ in range(n)]
        c = [Fraction(rng.randint(-15, 15), 3) for _ in range(n)]
        rhs = tuple(
            add(*[mul(Const(a[i][j]), sym(states[j])) for j in range(n)])
            for i in range(n)
        )
        sys = OdeSystem(name="lin", states=states, params=(), rhs=rhs)
        output = add(*[mul(Const(c[j]), sym(states[j])) for j in range(n)])
        rows, current = [], [list(c)]
        for _ in range(n):
            rows.append(current[0])
            current = mat_mul(current, a)
        oracle = linalg.rank(rows)
        emb = build_embedding(sys, ObservationSet((output,), "y"), n - 1)
        verdict = generic_rank(jacobian(emb, sys), seed=5, trials=2)
        assert verdict.generic_rank == oracle
        checked += 1
    assert checked >= 100
    _passed(10, f"{checked}/{checked} random linear systems agree with the power-stack rank")


def test_11_numeric_cross_checks(sir, lv):
    params = {"beta": 0.0004, "lambda": 0.04}
    x0 = (997.0, 3.0, 0.0)
    traj = integrate_rk4(sir, x0, params, 0.01, 100.0)
    drift = conserved_drift(traj, sir.conserved[0])
    assert drift < 1e-6
    # fourth-order check on the nonlinear LV invariant: a Runge-Kutta step
    # preserves linear invariants like S+I+R exactly (their drift is float
    # noise), so dt-scaling is only visible on a nonlinear invariant
    lv_params = {"R": 2.0, "D": 1.0, "B": 1.0, "M": 1.0}
    d_coarse = conserved_drift(
        integrate_rk4(lv, (2.0, 1.0), lv_params, 0.02, 20.0), lv.conserved[0]
    )
    d_fine = conserved_drift(
        integrate_rk4(lv, (2.0, 1.0), lv_params, 0.01, 20.0), lv.conserved[0]
    )
    assert d_coarse / d_fine >= 12.0
    witness = unobservability_witness(
        sir, obs_named(sir, "I"), x0, params, 0.01, 10.0, 5.0
    )
    assert witness is not None and witness.output_distance < 1e-12
    assert witness.direction == "R"
    none_found = unobservability_witness(
        sir, obs_named(sir, "R"), x0, params, 0.01, 10.0, 5.0
    )
    assert none_found is None
    _passed(
        11,
        f"SIR drift {drift:.2e} < 1e-6; LV drift contracts {d_coarse / d_fine:.1f}x on halving dt; "
        "witness found for SIR/I only",
    )


def test_12_reports_are_deterministic(tmp_path, capsys):
    for name in ("sir", "mm", "toy", "lv"):
        blobs = []
        for run_idx in (1, 2):
            out = tmp_path / f"{name}.{run_idx}.json"
            code = cli_main(
                ["analyze", str(model_path(name)), "--seed", "0", "--json", str(out)]
            )
            assert code == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], name
        json.loads(blobs[0])  # well-formed
    capsys.readouterr()
    _passed(12, "analyze with --seed 0 is byte-identical across runs on all four models")
