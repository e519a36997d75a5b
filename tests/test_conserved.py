import random
from fractions import Fraction

import pytest

import odeobs.conserved
from odeobs import linalg
from odeobs.conserved import (
    NotSquareError,
    Partition,
    alternative_observables,
    conserved_set_independent,
    eliminate_states,
    exchange_conditions,
    partition_jacobians,
    solve_affine,
)
from odeobs.expr import Const, Sym, add, eval_exact, neg, parse_expr, substitute
from odeobs.model import (
    ConservedQuantity,
    ConservedSet,
    ModelError,
    NotAffineError,
    parse_model,
    verify_all_conserved,
)
from odeobs.poly import normalize_rational

from conftest import mat_mul


def verified_set(sys, *levels):
    updated, _ = verify_all_conserved(sys)
    if levels:
        return updated, ConservedSet(tuple(updated.conserved_named(l) for l in levels))
    return updated, ConservedSet(updated.conserved)


class TestPartitionJacobians:
    def test_sir_blocks(self, sir):
        updated, g = verified_set(sir)
        p = Partition(
            r_vars=(sir.state_named("S"), sir.state_named("R")),
            s_vars=(sir.state_named("I"),),
        )
        pj = partition_jacobians(g, p)
        assert pj.dg_ds == ((Const(Fraction(1)),),)
        assert pj.dg_dr == ((Const(Fraction(1)), Const(Fraction(1))),)

    def test_mm_blocks(self, mm):
        updated, g = verified_set(mm)
        p = Partition(
            r_vars=(mm.state_named("s"), mm.state_named("p")),
            s_vars=(mm.state_named("e"), mm.state_named("c")),
        )
        pj = partition_jacobians(g, p)
        one, zero = Const(Fraction(1)), Const(Fraction(0))
        assert pj.dg_ds == ((one, one), (zero, one))
        assert pj.dg_dr == ((zero, zero), (one, one))

    def test_empty_set_zero_rows(self, sir):
        g = ConservedSet(())
        p = Partition(
            r_vars=(sir.state_named("S"), sir.state_named("R")),
            s_vars=(sir.state_named("I"),),
        )
        pj = partition_jacobians(g, p)
        assert pj.dg_ds == () and pj.dg_dr == ()


class TestExchangeConditions:
    def test_sir_conditions_hold(self, sir):
        updated, g = verified_set(sir)
        p = Partition(
            r_vars=(sir.state_named("S"), sir.state_named("I")),
            s_vars=(sir.state_named("R"),),
        )
        cond = exchange_conditions(partition_jacobians(g, p), seed=0)
        assert cond.ds_invertible and cond.dr_full_rank and cond.holds

    def test_mm_joint_fails_dr_full_rank(self, mm):
        # both conservation laws against sufficient block (e, c): the block
        # over (s, p) has generic rank 1 < 2
        updated, g = verified_set(mm)
        p = Partition(
            r_vars=(mm.state_named("s"), mm.state_named("p")),
            s_vars=(mm.state_named("e"), mm.state_named("c")),
        )
        cond = exchange_conditions(partition_jacobians(g, p), seed=0)
        assert cond.ds_invertible
        assert cond.dr_rank.generic_rank == 1
        assert cond.dr_required == 2
        assert not cond.dr_full_rank and not cond.holds

    def test_singular_ds_detected(self, mm):
        q1 = ConservedQuantity(
            parse_expr("e + c", mm.symbol_table()), "A", verified="exact"
        )
        q2 = ConservedQuantity(
            parse_expr("e + c", mm.symbol_table()), "B", verified="exact"
        )
        g = ConservedSet((q1, q2))
        p = Partition(
            r_vars=(mm.state_named("s"), mm.state_named("p")),
            s_vars=(mm.state_named("e"), mm.state_named("c")),
        )
        cond = exchange_conditions(partition_jacobians(g, p), seed=0)
        assert not cond.ds_invertible

    def test_not_square_raises(self, mm):
        updated, g = verified_set(mm)
        p = Partition(
            r_vars=(mm.state_named("s"), mm.state_named("p"), mm.state_named("c")),
            s_vars=(mm.state_named("e"),),
        )
        with pytest.raises(NotSquareError):
            exchange_conditions(partition_jacobians(g, p), seed=0)


class TestSolveAffine:
    def test_sir_solution(self, sir):
        updated, g = verified_set(sir)
        p = Partition(
            r_vars=(sir.state_named("S"), sir.state_named("R")),
            s_vars=(sir.state_named("I"),),
        )
        sol = solve_affine(g, [g.quantities[0].level_symbol()], p)
        table = dict(sir.symbol_table(), N=g.quantities[0].level_symbol())
        expected = parse_expr("N - S - R", table)
        diff_expr = add(sol[sir.state_named("I")], neg(expected))
        assert normalize_rational(diff_expr).num.is_zero

    def test_mm_substrate_solution(self, mm):
        updated, g = verified_set(mm, "S0")
        p = Partition(
            r_vars=(mm.state_named("e"), mm.state_named("s"), mm.state_named("p")),
            s_vars=(mm.state_named("c"),),
        )
        sol = solve_affine(g, [g.quantities[0].level_symbol()], p)
        table = dict(mm.symbol_table(), S0=g.quantities[0].level_symbol())
        expected = parse_expr("S0 - s - p", table)
        assert normalize_rational(
            add(sol[mm.state_named("c")], neg(expected))
        ).num.is_zero

    def test_toy_solution(self, toy):
        updated, g = verified_set(toy)
        p = Partition(r_vars=(toy.state_named("R"),), s_vars=(toy.state_named("S"),))
        sol = solve_affine(g, [g.quantities[0].level_symbol()], p)
        table = dict(toy.symbol_table(), Q0=g.quantities[0].level_symbol())
        expected = parse_expr("Q0 - R", table)
        assert normalize_rational(
            add(sol[toy.state_named("S")], neg(expected))
        ).num.is_zero

    def test_level_residual_identity(self, mm):
        # substituting the solution back into each quantity returns its level
        updated, g = verified_set(mm)
        p = Partition(
            r_vars=(mm.state_named("s"), mm.state_named("p")),
            s_vars=(mm.state_named("e"), mm.state_named("c")),
        )
        levels = [q.level_symbol() for q in g.quantities]
        sol = solve_affine(g, levels, p)
        for q, level in zip(g.quantities, levels):
            residual = add(substitute(q.expr, sol), neg(Sym(level)))
            assert normalize_rational(residual).num.is_zero

    def test_non_affine_rejected(self, lv):
        updated, g = verified_set(lv)
        p = Partition(r_vars=(lv.state_named("m"),), s_vars=(lv.state_named("r"),))
        with pytest.raises(NotAffineError):
            solve_affine(g, [g.quantities[0].level_symbol()], p)

    def test_solution_jacobian_identity(self, mm):
        # d(solution)/dr agrees with -(dG/ds)^-1 (dG/dr) at random points
        from odeobs.expr import diff as ddiff

        updated, g = verified_set(mm)
        p = Partition(
            r_vars=(mm.state_named("s"), mm.state_named("p")),
            s_vars=(mm.state_named("e"), mm.state_named("c")),
        )
        levels = [q.level_symbol() for q in g.quantities]
        sol = solve_affine(g, levels, p)
        pj = partition_jacobians(g, p)
        rng = random.Random(101)
        symbols = mm.states + mm.params + tuple(levels)
        for _ in range(10):
            point = {s: Fraction(rng.randint(-9, 9)) for s in symbols}
            ds = [[eval_exact(e, point) for e in row] for row in pj.dg_ds]
            dr = [[eval_exact(e, point) for e in row] for row in pj.dg_dr]
            expected = mat_mul(linalg.invert(ds), dr)
            for j, s_var in enumerate(p.s_vars):
                for i, r_var in enumerate(p.r_vars):
                    got = eval_exact(ddiff(sol[s_var], r_var), point)
                    assert got == -expected[j][i]


class TestEliminateStates:
    def test_single_matches_model_reduction(self, sir):
        updated, g = verified_set(sir)
        red = eliminate_states(updated, g, (sir.state_named("I"),))
        assert "N" in {p.name for p in red.params}
        # transformed susceptible equation no longer reads the infected state
        from odeobs.expr import free_symbols

        i_s = red.state_index(sir.state_named("S"))
        assert sir.state_named("I") not in free_symbols(red.rhs[i_s])

    def test_joint_elimination_matches_sequential_paper_route(self, mm):
        # joint (E0, S0) elimination of (e, c) reproduces the double-reduction
        # dependency structure: everything reads only (s, p)
        from odeobs.expr import free_symbols

        updated, g = verified_set(mm)
        red = eliminate_states(updated, g, (mm.state_named("e"), mm.state_named("c")))
        for i, s in enumerate(red.states):
            deps = {x.name for x in free_symbols(red.rhs[i]) if x.kind == "state"}
            assert deps <= {"s", "p"}
        # and both quantities still verify on the transformed field
        _, verdicts = verify_all_conserved(red)
        assert all(v.status == "exact" for v in verdicts)

    def test_requires_verified(self, sir):
        g = ConservedSet(sir.conserved)
        with pytest.raises(ModelError):
            eliminate_states(sir, g, (sir.state_named("I"),))


class TestAlternativeObservables:
    def test_sir_any_single_state_suffices(self, sir):
        updated, g = verified_set(sir)
        search = alternative_observables(updated, g, [sir.state_named("R")], seed=0)
        assert search.positive_sets() == (("S",), ("I",))
        for result in search.positives():
            assert result.assessment.rank.generic_rank == 3
            assert result.graphical.sufficient
            assert result.conditions.holds

    def test_partition_cap_truncates_the_search(self, monkeypatch, sir):
        # known {S, I, R} gives three partitions; the cap stops after the
        # first, whose two candidates I and R are still verified
        monkeypatch.setattr(odeobs.conserved, "PARTITION_CAP", 1)
        updated, g = verified_set(sir)
        search = alternative_observables(updated, g, updated.states, seed=0)
        assert search.truncated
        assert len(search.results) == 2

    def test_mm_substrate_conservation_gives_s_and_c(self, mm):
        updated, g = verified_set(mm, "S0")
        search = alternative_observables(updated, g, [mm.state_named("p")], seed=0)
        assert search.positive_sets() == (("s",), ("c",))
        for result in search.positives():
            assert result.assessment.rank.generic_rank == 4

    def test_mm_enzyme_conservation_yields_nothing_from_p(self, mm):
        # negative control: e + c does not involve the source p, so no
        # single-sensor alternative may be reported
        updated, g = verified_set(mm, "E0")
        search = alternative_observables(updated, g, [mm.state_named("p")], seed=0)
        assert search.positive_sets() == ()
        assert len(search.results) == 1
        assert "admissible partition" in search.results[0].reason

    def test_toy_conserved_makes_decaying_state_sufficient(self, toy):
        updated, g = verified_set(toy)
        search = alternative_observables(updated, g, [toy.state_named("S")], seed=0)
        assert search.positive_sets() == (("R",),)
        result = search.positives()[0]
        assert result.assessment.rank.generic_rank == 2
        assert result.graphical.sufficient

    def test_lv_non_affine_no_new_sets(self, lv):
        updated, g = verified_set(lv)
        for known_name in ("r", "m"):
            search = alternative_observables(
                updated, g, [lv.state_named(known_name)], seed=0
            )
            assert search.positive_sets() == ()
            [result] = search.results
            assert result.conditions.holds  # conditions do hold...
            assert "not affine" in result.reason  # ...but nothing constructive

    def test_soundness_positive_means_rank_n(self, sir, mm, toy):
        for sys in (sir, mm, toy):
            updated, _ = verify_all_conserved(sys)
            for q in updated.conserved:
                g = ConservedSet((q,))
                for obs in updated.observations:
                    known = list(obs.observed_states())
                    try:
                        search = alternative_observables(updated, g, known, seed=0)
                    except ModelError:
                        continue
                    for result in search.positives():
                        assert result.assessment.rank.generic_rank == result.assessment.n

    def test_requires_verified_quantities(self, sir):
        g = ConservedSet(sir.conserved)
        with pytest.raises(ModelError):
            alternative_observables(sir, g, [sir.state_named("R")], seed=0)

    def test_dependent_gradients_reported(self, mm):
        q1 = ConservedQuantity(
            parse_expr("e + c", mm.symbol_table()), "A", verified="exact"
        )
        q2 = ConservedQuantity(
            parse_expr("2*e + 2*c", mm.symbol_table()), "B", verified="exact"
        )
        g = ConservedSet((q1, q2))
        search = alternative_observables(
            mm, g, [mm.state_named("e"), mm.state_named("c")], seed=0
        )
        assert search.positive_sets() == ()
        assert "dependent" in search.results[0].reason

    @pytest.mark.parametrize(
        "body, known, reason",
        [
            # dG/ds = [[1, 1], [2, 2]] for s = (x, y)
            (
                "states: x, y, z\ndx/dt = k*(y - x)\ndy/dt = k*(x - y)\ndz/dt = 0*z\n"
                "conserved G: x + y\nconserved H: 2*x + 2*y + z\n",
                ("x", "y"),
                "dG/ds not generically invertible",
            ),
            (
                "states: x, y\ndx/dt = 0*x\ndy/dt = k*(x - y)\nconserved G: x\n",
                ("x",),
                "dG/dr generic rank 0 < 1",
            ),
            # one state: the s block takes it, and nothing is left to replace it by
            (
                "states: x\ndx/dt = 0*x\nconserved G: x\n",
                ("x",),
                "conditions hold but no solvable replacement variables exist",
            ),
            ("states: x\ndx/dt = k*x\n", ("x",), "no conserved quantities supplied"),
        ],
    )
    def test_search_names_why_it_found_nothing(self, body, known, reason):
        sys = parse_model("model: m\nparams: k\n" + body)
        updated, g = verified_set(sys)
        search = alternative_observables(updated, g, [sys.state_named(v) for v in known], seed=0)
        assert search.positive_sets() == ()
        assert [r.reason for r in search.results] == [reason]

    def test_independence_check(self, mm):
        updated, g = verified_set(mm)
        assert conserved_set_independent(updated, g, seed=0)
