import hashlib
import random
from fractions import Fraction

import pytest

from odeobs import embedding, linalg
from odeobs.embedding import (
    AllPointsDegenerateError,
    build_embedding,
    generic_rank,
    generic_rank_of,
    jacobian,
    observability_verdict,
    rank_at_point,
)
from odeobs.expr import (
    ONE,
    ZERO,
    Const,
    Div,
    DivisionByZeroError,
    ExactProgram,
    Sym,
    Symbol,
    add,
    compile_exact,
    diff,
    exp,
    ln,
    mul,
    neg,
    parse_expr,
    sym,
    to_str,
)
from odeobs.model import (
    ObservationSet,
    OdeSystem,
    lie_derivative,
    parse_model,
    reduce_by_conserved,
    verify_all_conserved,
)
from odeobs.poly import is_zero, normalize_rational

from conftest import mat_mul


def semantically_equal(a, b):
    return normalize_rational(add(a, neg(b))).num.is_zero


def obs_named(sys, label):
    return next(o for o in sys.observations if o.label == label)


class TestBuildEmbedding:
    def test_sir_recovered_stack(self, sir):
        emb = build_embedding(sir, obs_named(sir, "R"), 2)
        table = sir.symbol_table()
        expected = ["R", "lambda*I", "lambda*(beta*S*I - lambda*I)"]
        assert len(emb.components) == 3
        for comp, text in zip(emb.components, expected):
            assert semantically_equal(comp, parse_expr(text, table))

    def test_sir_infected_stack(self, sir):
        emb = build_embedding(sir, obs_named(sir, "I"), 2)
        table = sir.symbol_table()
        expected = [
            "I",
            "beta*S*I - lambda*I",
            "(beta*S - lambda)^2*I - beta^2*S*I^2",
        ]
        for comp, text in zip(emb.components, expected):
            assert semantically_equal(comp, parse_expr(text, table))

    def test_order_zero_is_outputs(self, sir):
        emb = build_embedding(sir, obs_named(sir, "R"), 0)
        assert emb.components == obs_named(sir, "R").outputs

    def test_auto_order(self, sir):
        emb = build_embedding(sir, obs_named(sir, "R"), "auto")
        assert emb.order == sir.n - 1

    def test_component_indexing_groups_by_output(self, mm):
        obs = obs_named(mm, "ec")
        emb = build_embedding(mm, obs, 1)
        assert emb.component(0, 0) == obs.outputs[0]
        assert emb.component(1, 0) == obs.outputs[1]


class TestJacobian:
    def test_sir_recovered_rows_match_hand_gradients(self, sir):
        emb = build_embedding(sir, obs_named(sir, "R"), 2)
        jac = jacobian(emb, sir)
        table = sir.symbol_table()
        expected = [
            ["0", "0", "1"],
            ["0", "lambda", "0"],
            ["lambda*beta*I", "lambda*(beta*S - lambda)", "0"],
        ]
        for row, texts in zip(jac.entries, expected):
            for entry, text in zip(row, texts):
                assert semantically_equal(entry, parse_expr(text, table))

    def test_transformed_sir_structure(self, sir):
        # after eliminating I, the I-column carries only the first row
        verified, _ = verify_all_conserved(sir)
        red = reduce_by_conserved(verified, verified.conserved[0], sir.state_named("I"))
        emb = build_embedding(red, ObservationSet((Sym(sir.state_named("I")),), "I"), 2)
        jac = jacobian(emb, red)
        i_col = red.state_index(sir.state_named("I"))
        assert jac.entries[0][i_col] == Const(Fraction(1))
        for row in jac.entries[1:]:
            assert is_zero(row[i_col]).kind == "zero"

    def test_k_zero_single_row(self, sir):
        emb = build_embedding(sir, obs_named(sir, "R"), 0)
        jac = jacobian(emb, sir)
        assert [str(e) for e in jac.entries[0]] == ["0", "0", "1"]


class TestGenericRank:
    def test_sir_recovered_full_rank(self, sir):
        emb = build_embedding(sir, obs_named(sir, "R"), 2)
        verdict = generic_rank(jacobian(emb, sir), seed=0)
        assert verdict.generic_rank == 3
        assert verdict.confidence == "exact"

    def test_sir_infected_rank_two_without_transform(self, sir):
        emb = build_embedding(sir, obs_named(sir, "I"), 2)
        jac = jacobian(emb, sir)
        verdict = generic_rank(jac, seed=0)
        assert verdict.generic_rank == 2
        # the R column is identically zero
        r_col = sir.state_index(sir.state_named("R"))
        assert all(is_zero(row[r_col]).kind == "zero" for row in jac.entries)

    def test_zero_matrix(self):
        x = Symbol("x", "state")
        verdict = generic_rank_of(((Const(Fraction(0)),),))
        assert verdict.generic_rank == 0
        del x

    def test_all_points_degenerate(self):
        x = Symbol("x", "state")
        bad = Div(Const(Fraction(1)), add(sym(x), neg(sym(x))))  # 1/(x - x)
        with pytest.raises(AllPointsDegenerateError):
            generic_rank_of(((bad,),), trials=2)

    def test_symbol_free_matrices_are_ranked_once(self, monkeypatch):
        # a constant matrix ranks the same at every draw; one run stands for all
        two, three = Const(Fraction(2)), Const(Fraction(3))
        half = Const(Fraction(1, 2))
        cases = {
            "full rank": ((half, two, three), (three, ONE, two)),
            "deficient": ((half, two, three), (ONE, Const(Fraction(4)), Const(Fraction(6)))),
            "ln/exp": ((ln(two), exp(ONE)), (ln(Const(Fraction(4))), mul(two, exp(ONE)))),
        }
        for rows in cases.values():
            for trials in (1, 8):
                program = compile_exact(rows)
                runs = []
                for name in ("run", "run_float"):
                    monkeypatch.setattr(ExactProgram, name, recording(getattr(ExactProgram, name), runs))
                verdict = generic_rank_of(rows, seed=3, trials=trials)
                monkeypatch.undo()
                assert runs == [{}]
                assert verdict == _per_point_verdict(rows, seed=3, trials=trials)
                assert verdict.sample_points == ({},) * trials
                assert len({id(p) for p in verdict.sample_points}) == trials
                assert verdict.confidence == (
                    "exact" if program.rational and verdict.generic_rank == 2 else "probabilistic"
                )
        assert [generic_rank_of(rows).generic_rank for rows in cases.values()] == [2, 1, 1]

    def test_symbol_free_poles_raise_as_every_draw_did(self, monkeypatch):
        # a pole, ln of a negative and an exp overflow: each fails at one run
        for bad in (Div(ONE, ZERO), ln(neg(ONE)), exp(Const(Fraction(1000)))):
            rows = ((ONE, bad),)
            with pytest.raises(AllPointsDegenerateError) as expected:
                _per_point_verdict(rows, seed=0, trials=2)
            runs = []
            for name in ("run", "run_float"):
                monkeypatch.setattr(ExactProgram, name, recording(getattr(ExactProgram, name), runs))
            with pytest.raises(AllPointsDegenerateError) as got:
                generic_rank_of(rows, trials=2)
            monkeypatch.undo()
            assert runs == [{}]
            assert str(got.value) == str(expected.value)

    def test_seed_reproducibility(self, sir):
        emb = build_embedding(sir, obs_named(sir, "R"), 2)
        jac = jacobian(emb, sir)
        assert generic_rank(jac, seed=4) == generic_rank(jac, seed=4)

    def test_row_scaling_invariance(self, sir):
        # multiplying embedding components by constants never changes ranks
        emb = build_embedding(sir, obs_named(sir, "R"), 2)
        jac = jacobian(emb, sir)
        scaled_rows = tuple(
            tuple(mul(Const(Fraction(k + 2)), entry) for entry in row)
            for k, row in enumerate(jac.entries)
        )
        a = generic_rank(jac, seed=0)
        b = generic_rank_of(scaled_rows, seed=0)
        assert a.generic_rank == b.generic_rank
        assert a.point_ranks == b.point_ranks

    def test_monotone_and_saturating_in_k(self, sir, mm, toy, lv):
        for sys in (sir, mm, toy, lv):
            obs = sys.observations[0]
            previous = 0
            ranks = []
            for k in range(sys.n + 2):
                emb = build_embedding(sys, obs, k)
                verdict = generic_rank(jacobian(emb, sys), seed=1, trials=4)
                ranks.append(verdict.generic_rank)
                assert verdict.generic_rank >= previous
                previous = verdict.generic_rank
            assert ranks[sys.n - 1] == ranks[sys.n] == ranks[sys.n + 1]


def recording(method, runs):
    """``method`` of ExactProgram, appending each point it runs at to ``runs``."""

    def run(self, point):
        runs.append(point)
        return method(self, point)

    return run


def _per_point_verdict(rows, seed, trials):
    """generic_rank_of as it samples a matrix with symbols, kept as the
    reference for symbol-free matrices: every draw runs and ranks."""
    n_rows, n_cols = len(rows), len(rows[0])
    program = compile_exact(rows)
    symbols = tuple(sorted(program.symbols, key=lambda s: s.sort_key))
    rational = program.rational
    bound = embedding.POINT_BOUND if rational else embedding.FLOAT_POINT_BOUND
    rng = random.Random(seed)
    points, ranks = [], []
    attempts = 0
    max_attempts = 200 * trials
    while len(ranks) < trials and attempts < max_attempts:
        attempts += 1
        point = {s: rng.randint(-bound, bound) for s in symbols}
        try:
            r = linalg.rank(program.run(point)) if rational else embedding._float_rank(program, point)
        except DivisionByZeroError:
            continue
        if r is None:
            bound = max(4, bound // 2)
            continue
        points.append(point)
        ranks.append(r)
    if not ranks:
        raise AllPointsDegenerateError(
            f"no valid sample in {max_attempts} draws; all points degenerate"
        )
    by_name = sorted(symbols, key=lambda s: s.name)
    order = sorted(range(len(points)), key=lambda i: [points[i][s] for s in by_name])
    points = [points[i] for i in order]
    ranks = [ranks[i] for i in order]
    generic = max(ranks)
    exact = rational and generic == min(n_rows, n_cols)
    return embedding.RankVerdict(
        generic, len(ranks), tuple(points), tuple(ranks),
        "exact" if exact else "probabilistic", n_rows, n_cols,
    )


class TestRankAtPoint:
    def test_sir_degenerate_when_no_infections(self, sir):
        emb = build_embedding(sir, obs_named(sir, "R"), 2)
        jac = jacobian(emb, sir)
        point = {
            sir.state_named("S"): Fraction(5),
            sir.state_named("I"): Fraction(0),
            sir.state_named("R"): Fraction(7),
            sir.params[0]: Fraction(1, 3),
            sir.params[1]: Fraction(2),
        }
        r = rank_at_point(jac, point)
        assert r == 2

    def test_lv_degenerate_loci(self, lv):
        params = dict(zip(lv.params, (Fraction(2), Fraction(1), Fraction(1), Fraction(3))))
        emb_r = build_embedding(lv, obs_named(lv, "r"), 1)
        jac_r = jacobian(emb_r, lv)
        at_r0 = {lv.state_named("r"): Fraction(0), lv.state_named("m"): Fraction(4), **params}
        assert rank_at_point(jac_r, at_r0) < 2
        emb_m = build_embedding(lv, obs_named(lv, "m"), 1)
        jac_m = jacobian(emb_m, lv)
        at_m0 = {lv.state_named("r"): Fraction(4), lv.state_named("m"): Fraction(0), **params}
        assert rank_at_point(jac_m, at_m0) < 2

    def test_identity_jacobian(self, toy):
        obs = ObservationSet(tuple(Sym(s) for s in toy.states), "all")
        emb = build_embedding(toy, obs, 0)
        jac = jacobian(emb, toy)
        point = {s: Fraction(i + 1) for i, s in enumerate(toy.states)}
        assert rank_at_point(jac, point) == toy.n

    def test_never_exceeds_generic_rank(self, sir):
        rng = random.Random(89)
        emb = build_embedding(sir, obs_named(sir, "R"), 2)
        jac = jacobian(emb, sir)
        generic = generic_rank(jac, seed=0).generic_rank
        symbols = sir.states + sir.params
        for _ in range(25):
            point = {s: Fraction(rng.randint(-30, 30)) for s in symbols}
            assert rank_at_point(jac, point) <= generic

    @staticmethod
    def _pole_model():
        """dx/dt = k/(x - 1), dy/dt = x*y, observing x: a pole at x = 1."""
        x, y, k = Symbol("x", "state"), Symbol("y", "state"), Symbol("k", "parameter")
        rhs = (parse_expr("k/(x - 1)", {"x": x, "k": k}), parse_expr("x*y", {"x": x, "y": y}))
        sys = OdeSystem(name="pole", states=(x, y), params=(k,), rhs=rhs)
        jac = jacobian(build_embedding(sys, ObservationSet((sym(x),), "x")), sys)
        return jac, (x, y, k)

    def test_regular_point_of_a_model_with_a_pole_has_the_generic_rank(self):
        jac, (x, y, k) = self._pole_model()
        regular = {x: Fraction(3), y: Fraction(2), k: Fraction(5)}
        assert rank_at_point(jac, regular) == generic_rank(jac, seed=0).generic_rank

    def test_pole_raises_the_error_the_sampler_skips(self):
        # generic_rank_of treats DivisionByZeroError as a pole and draws again
        jac, (x, y, k) = self._pole_model()
        with pytest.raises(DivisionByZeroError):
            rank_at_point(jac, {x: Fraction(1), y: Fraction(2), k: Fraction(5)})


class TestObservabilityVerdict:
    def test_sir_positive_and_negative(self, sir):
        good = observability_verdict(sir, obs_named(sir, "R"), seed=0)
        assert good.observable and good.k == 2
        bad = observability_verdict(sir, obs_named(sir, "I"), seed=0)
        assert not bad.observable
        assert bad.rank.generic_rank == 2
        assert bad.rank_growing is False  # stuck at 2: no growth past order n-1

    def test_toy_appendix_ranks(self, toy):
        # the two Kalman observability matrices: rank 1 from R, rank 2 from S
        v_r = observability_verdict(toy, obs_named(toy, "R"), seed=0)
        v_s = observability_verdict(toy, obs_named(toy, "S"), seed=0)
        assert v_r.rank.generic_rank == 1 and not v_r.observable
        assert v_s.rank.generic_rank == 2 and v_s.observable


CHAIN6 = """model: chain6
params: k1, k2, k3, k4, k5
states: x1, x2, x3, x4, x5, x6
dx1/dt = -k1*x1
dx2/dt = k1*x1 - k2*x2
dx3/dt = k2*x2 - k3*x3
dx4/dt = k3*x3 - k4*x4
dx5/dt = k4*x4 - k5*x5
dx6/dt = k5*x5
conserved T: x1 + x2 + x3 + x4 + x5 + x6
observe end: x6
"""

# sha256 of the sorted sample points, as recorded by the tree-walking
# evaluator this program compiler replaced; the draws must not move
PINNED_POINTS = {
    ("chain6", "end", 0): "2269d319cfb3d7c5361c6ee406b80df34352caa1ed9399d42bb0e4cfa187f5a3",
    ("chain6", "end", 3): "284c1cbd1c3ac97a5b68c3fada1f1823cdd6c969fad66705ea3bdb349bfb1188",
    ("mm", "p", 0): "275a443deeb6431df5e1ad07677399048c39e4a6b6eee7e2e38131d5d7023863",
    ("mm", "p", 3): "ca51c97e26a483a8dce420ef557fbff3f55407c3785f0d81ae7dfa66ffaf35b3",
    ("mm", "ec", 0): "275a443deeb6431df5e1ad07677399048c39e4a6b6eee7e2e38131d5d7023863",
    ("mm", "ec", 3): "ca51c97e26a483a8dce420ef557fbff3f55407c3785f0d81ae7dfa66ffaf35b3",
}
PINNED_RANKS = {"end": (6, "exact"), "p": (4, "exact"), "ec": (3, "probabilistic")}


def points_digest(points):
    text = ";".join(
        ",".join(f"{s.name}={v}" for s, v in sorted(p.items(), key=lambda kv: kv[0].name))
        for p in points
    )
    return hashlib.sha256(text.encode()).hexdigest()


class TestSharedDerivatives:
    def test_entries_and_components_print_as_fresh_derivatives(self, sir, mm, lv):
        for sys in (sir, mm, lv, parse_model(CHAIN6)):
            for obs in sys.observations:
                emb = build_embedding(sys, obs)
                jac = jacobian(emb, sys)
                for o, output in enumerate(obs.outputs):
                    component = output
                    for d in range(emb.order + 1):
                        assert to_str(emb.component(o, d)) == to_str(component)
                        row = jac.entries[o * (emb.order + 1) + d]
                        assert [to_str(e) for e in row] == [
                            to_str(diff(component, s)) for s in sys.states
                        ]
                        component = lie_derivative(sys, component)

    @staticmethod
    def _counted_verdict(monkeypatch, sys, obs, **kwargs):
        calls = {"diff": 0, "build_embedding": 0, "_extend": 0, "generic_rank": 0}

        def counted(name):
            fn = getattr(embedding, name)

            def wrapper(*args, **kw):
                calls[name] += 1
                return fn(*args, **kw)

            monkeypatch.setattr(embedding, name, wrapper)

        for name in calls:
            counted(name)
        return observability_verdict(sys, obs, seed=0, trials=2, **kwargs), calls

    def test_verdict_differentiates_each_order_once(self, monkeypatch):
        # x2 and x3 see only x1..x3 of the six compartments: the rank is
        # short at the default order n-1, where it cannot grow any more, so
        # nothing of order n is built or sampled
        sys = parse_model(CHAIN6.replace("observe end: x6", "observe mid: x2, x3"))
        v, calls = self._counted_verdict(monkeypatch, sys, sys.observations[0])
        assert (v.k, v.rank.generic_rank, v.rank_growing) == (5, 3, False)
        assert calls["build_embedding"] == 1
        assert (calls["_extend"], calls["generic_rank"]) == (v.k, 1)
        n_outputs, n = 2, 6
        assert calls["diff"] == n_outputs * n * (v.k + 1)

    def test_low_order_verdict_extends_once(self, monkeypatch):
        # below order n-1 the rank may still grow: order k+1 is built once
        # from order k and sampled
        sys = parse_model(CHAIN6.replace("observe end: x6", "observe mid: x2, x3"))
        k = 2
        v, calls = self._counted_verdict(monkeypatch, sys, sys.observations[0], k=k)
        assert (v.k, v.rank.generic_rank, v.rank_growing) == (k, 3, False)
        assert calls["build_embedding"] == 1
        assert (calls["_extend"], calls["generic_rank"]) == (k + 1, 2)
        n_outputs, n = 2, 6
        assert calls["diff"] == n_outputs * n * (k + 2)

    def test_low_order_rank_still_growing(self, monkeypatch):
        # chain-6 seen at its end: rank 2 at order 1 and 3 at order 2
        sys = parse_model(CHAIN6)
        v, calls = self._counted_verdict(monkeypatch, sys, sys.observations[0], k=1)
        assert (v.k, v.rank.generic_rank, v.rank_growing) == (1, 2, True)
        assert (calls["_extend"], calls["generic_rank"]) == (2, 2)
        higher = generic_rank(jacobian(build_embedding(sys, sys.observations[0], 2), sys))
        assert higher.generic_rank == 3

    def test_order_above_n_minus_1_builds_nothing_higher(self, monkeypatch, sir):
        v, calls = self._counted_verdict(monkeypatch, sir, obs_named(sir, "I"), k=4)
        assert (v.k, v.n, v.rank.generic_rank, v.rank_growing) == (4, 3, 2, False)
        assert (calls["_extend"], calls["generic_rank"]) == (4, 1)

    def test_other_states_are_refused(self, sir, toy):
        with pytest.raises(ValueError):
            jacobian(build_embedding(sir, obs_named(sir, "R"), 1), toy)


class TestPinnedSampling:
    @pytest.mark.parametrize("model, label, seed", sorted(PINNED_POINTS))
    def test_sample_points_and_ranks_unchanged(self, model, label, seed, mm):
        sys = parse_model(CHAIN6) if model == "chain6" else mm
        jac = jacobian(build_embedding(sys, obs_named(sys, label)), sys)
        verdict = generic_rank_of(jac.entries, seed=seed)
        rank, confidence = PINNED_RANKS[label]
        assert verdict.point_ranks == (rank,) * 8
        assert (verdict.generic_rank, verdict.confidence) == (rank, confidence)
        assert points_digest(verdict.sample_points) == PINNED_POINTS[(model, label, seed)]


class TestLinearSystemOracle:
    def _random_linear_system(self, rng: random.Random):
        n = rng.randint(1, 4)
        states = tuple(Symbol(f"x{i}", "state") for i in range(n))
        a = [
            [Fraction(rng.randint(-15, 15), 3) for _ in range(n)] for _ in range(n)
        ]
        rhs = tuple(
            add(*[mul(Const(a[i][j]), sym(states[j])) for j in range(n)])
            for i in range(n)
        )
        c = [Fraction(rng.randint(-15, 15), 3) for _ in range(n)]
        output = add(*[mul(Const(c[j]), sym(states[j])) for j in range(n)])
        sys = OdeSystem(name=f"lin{n}", states=states, params=(), rhs=rhs)
        return sys, a, c, output

    def test_embedding_rank_equals_stacked_powers_rank(self):
        # independent oracle: rank of rows C, CA, ..., CA^(n-1) by exact
        # matrix powers, no Lie derivatives involved
        rng = random.Random(97)
        agreements = 0
        for _ in range(120):
            sys, a, c, output = self._random_linear_system(rng)
            n = sys.n
            rows = []
            current = [list(c)]
            for _ in range(n):
                rows.append(current[0])
                current = mat_mul(current, a)
            oracle_rank = linalg.rank(rows)
            emb = build_embedding(sys, ObservationSet((output,), "y"), n - 1)
            verdict = generic_rank(jacobian(emb, sys), seed=3, trials=2)
            assert verdict.generic_rank == oracle_rank
            agreements += 1
        assert agreements == 120

    def test_toy_matches_its_kalman_matrices(self, toy):
        # observing R: [[1, 0], [a, 0]]; observing S: [[0, 1], [-a, 0]]
        a_val = Fraction(5, 2)
        for label, expected in (("R", 1), ("S", 2)):
            emb = build_embedding(toy, obs_named(toy, label), 1)
            jac = jacobian(emb, toy)
            point = {
                toy.state_named("R"): Fraction(3),
                toy.state_named("S"): Fraction(4),
                toy.params[0]: a_val,
            }
            assert rank_at_point(jac, point) == expected
