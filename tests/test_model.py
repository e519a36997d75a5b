import random
from fractions import Fraction

import pytest

from odeobs.expr import (
    Const,
    Sym,
    Symbol,
    UnknownSymbolError,
    add,
    eval_exact,
    mul,
    neg,
    parse_expr,
)
from odeobs.model import (
    ConservedQuantity,
    DuplicateEquationError,
    MissingEquationError,
    ModelError,
    ModelSyntaxError,
    NotAffineError,
    ZeroCoefficientError,
    lie_derivative,
    parse_model,
    reduce_by_conserved,
    verify_all_conserved,
    verify_conserved,
)
from odeobs.poly import normalize_rational


def semantically_equal(a, b):
    return normalize_rational(add(a, neg(b))).num.is_zero


SIR_TEXT = """
model: sir
params: beta, lambda
states: S, I, R
dS/dt = -beta*S*I
dI/dt = beta*S*I - lambda*I
dR/dt = lambda*I
conserved N: S + I + R
observe R: R
"""


class TestParseModel:
    def test_sir_file(self, sir):
        assert sir.name == "sir"
        assert [s.name for s in sir.states] == ["S", "I", "R"]
        assert [p.name for p in sir.params] == ["beta", "lambda"]
        assert len(sir.conserved) == 1
        assert sir.conserved[0].level_name == "N"
        assert sir.conserved[0].verified == "unchecked"

    def test_mm_file(self, mm):
        assert mm.n == 4
        assert len(mm.conserved) == 2
        assert {q.level_name for q in mm.conserved} == {"E0", "S0"}

    def test_missing_equation(self):
        text = SIR_TEXT.replace("dI/dt = beta*S*I - lambda*I\n", "")
        with pytest.raises(MissingEquationError) as err:
            parse_model(text)
        assert err.value.state_name == "I"

    def test_duplicate_equation(self):
        text = SIR_TEXT.replace(
            "dR/dt = lambda*I", "dR/dt = lambda*I\ndR/dt = lambda*I"
        )
        with pytest.raises(DuplicateEquationError):
            parse_model(text)

    def test_unknown_symbol_in_rhs(self):
        with pytest.raises(UnknownSymbolError):
            parse_model(SIR_TEXT.replace("lambda*I", "gamma*I"))

    def test_unknown_directive(self):
        with pytest.raises(ModelSyntaxError):
            parse_model(SIR_TEXT + "\nplot: everything\n")

    def test_sections_out_of_order(self):
        shuffled = SIR_TEXT.replace("params: beta, lambda\nstates: S, I, R", "states: S, I, R\nparams: beta, lambda")
        with pytest.raises(ModelSyntaxError):
            parse_model(shuffled)

    def test_level_name_collision(self):
        with pytest.raises(ModelSyntaxError):
            parse_model(SIR_TEXT.replace("conserved N:", "conserved beta:"))

    def test_observe_requires_states(self):
        with pytest.raises(UnknownSymbolError):
            parse_model(SIR_TEXT.replace("observe R: R", "observe b: beta"))

    ROTATION = "model: m\nparams: a\nstates: x, y\ndx/dt = a*y\ndy/dt = -a*x\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("model:\nparams: a\nstates: x\ndx/dt = a\n", "line 1: model name missing"),
            ("model: m\nparams: a\nstates: x, x\ndx/dt = a\n", "line 3: repeated identifier"),
            ("model: m\nparams: a, b, a\nstates: x\ndx/dt = a\n", "line 2: repeated identifier"),
            (
                "model: m\nparams: a\nstates: x, a\ndx/dt = a\nda/dt = 0\n",
                "line 3: state and parameter names overlap",
            ),
            (ROTATION + "conserved Q: a\n", "line 6: conserved expression involves no state"),
            (
                ROTATION + "conserved Q: x^2 + y^2\nconserved Q: 2*x^2 + 2*y^2\n",
                "line 7: duplicate conserved level name",
            ),
            (
                ROTATION + "conserved T: x^2 + y^2\nconserved T: 2*x^2 + 2*y^2\n"
                "conserved U: 3*x^2 + 3*y^2\n",
                "line 7: duplicate conserved level name",
            ),
        ],
    )
    def test_refusal_names_the_line(self, text, message):
        with pytest.raises(ModelSyntaxError) as err:
            parse_model(text)
        assert str(err.value) == message

    def test_comments_and_blank_lines_ignored(self):
        noisy = "# heading\n\n" + SIR_TEXT.replace(
            "dS/dt = -beta*S*I", "dS/dt = -beta*S*I   # infection"
        )
        assert parse_model(noisy).name == "sir"


class TestVerifyConserved:
    def test_sir_population_exact(self, sir):
        verdict = verify_conserved(sir, sir.conserved[0])
        assert verdict.status == "exact"

    def test_mm_both_exact(self, mm):
        _, verdicts = verify_all_conserved(mm)
        assert [v.status for v in verdicts] == ["exact", "exact"]

    def test_lv_logarithmic_exact(self, lv):
        verdict = verify_conserved(lv, lv.conserved[0])
        assert verdict.status == "exact"

    def test_refuted_with_witness(self, sir):
        bogus = ConservedQuantity(
            parse_expr("S + I", sir.symbol_table()), "B0"
        )
        verdict = verify_conserved(sir, bogus)
        assert verdict.status == "refuted"
        assert verdict.witness is not None
        # the witness genuinely violates invariance: dH/dt = -lambda*I != 0
        residual = lie_derivative(sir, bogus.expr)
        assert eval_exact(residual, verdict.witness) != 0

    def test_undeclared_symbol_is_named(self, sir):
        table = dict(sir.symbol_table(), gamma=Symbol("gamma", "parameter"))
        with pytest.raises(UnknownSymbolError, match="unknown symbol 'gamma'"):
            verify_conserved(sir, ConservedQuantity(parse_expr("S + gamma", table), "G"))

    def test_ln_exp_residual_is_probabilistic(self):
        # d/dt (exp(x) - y) = exp(x)*a - exp(x)*a: not rational, so only
        # sampled zero, never certified
        sys = parse_model(
            "model: p\nparams: a\nstates: x, y\ndx/dt = a\ndy/dt = exp(x)*a\n"
            "conserved Q: exp(x) - y\n"
        )
        verdict = verify_conserved(sys, sys.conserved[0])
        assert (verdict.status, verdict.witness) == ("probabilistic", None)

    def test_verified_flag_copy_on_write(self, sir):
        updated, _ = verify_all_conserved(sir)
        assert updated.conserved[0].verified == "exact"
        assert sir.conserved[0].verified == "unchecked"  # original untouched


class TestLieDerivative:
    def test_observing_recovered_population(self, sir):
        # d/dt of R along the flow is the recovery inflow
        expected = parse_expr("lambda*I", sir.symbol_table())
        assert lie_derivative(sir, Sym(sir.state_named("R"))) == expected

    def test_second_derivative_chain(self, sir):
        first = lie_derivative(sir, Sym(sir.state_named("R")))
        second = lie_derivative(sir, first)
        expected = parse_expr("lambda*(beta*S*I - lambda*I)", sir.symbol_table())
        assert semantically_equal(second, expected)

    def test_constant_maps_to_zero(self, sir):
        assert lie_derivative(sir, Const(Fraction(7))) == Const(Fraction(0))

    def test_flow_finite_difference_oracle(self, sir):
        # independent oracle: numeric d/dt of y(x(t)) along an RK4 flow
        from odeobs.numeric import integrate_rk4

        y = parse_expr("beta*S*I - lambda*I", sir.symbol_table())
        ly = lie_derivative(sir, y)
        params = {"beta": 0.0004, "lambda": 0.04}
        x0 = (900.0, 80.0, 20.0)
        h = 1e-5
        traj = integrate_rk4(sir, x0, params, h, 2 * h)
        table = dict(zip(sir.states, traj.values[0]))
        table_up = dict(zip(sir.states, traj.values[2]))
        point = {
            **{s: v for s, v in table.items()},
            **{p: params[p.name] for p in sir.params},
        }
        from odeobs.expr import eval_float

        y_mid_rate = (eval_float(y, {**point, **table_up}) - eval_float(y, point)) / (
            2 * h
        )
        mid = dict(zip(sir.states, traj.values[1]))
        got = eval_float(ly, {**point, **mid})
        assert got == pytest.approx(y_mid_rate, rel=1e-6)

    def test_derivation_property(self, sir):
        # L(y1*y2) == y1*L(y2) + y2*L(y1) checked by exact evaluation
        rng = random.Random(61)
        table = sir.symbol_table()
        y1 = parse_expr("S + 2*R", table)
        y2 = parse_expr("I*R - S", table)
        lhs = lie_derivative(sir, mul(y1, y2))
        rhs = add(mul(y1, lie_derivative(sir, y2)), mul(y2, lie_derivative(sir, y1)))
        symbols = sir.states + sir.params
        for _ in range(25):
            point = {s: Fraction(rng.randint(-9, 9)) for s in symbols}
            assert eval_exact(lhs, point) == eval_exact(rhs, point)


class TestReduceByConserved:
    def test_requires_verified_quantity(self, sir):
        with pytest.raises(ModelError):
            reduce_by_conserved(sir, sir.conserved[0], sir.state_named("I"))

    def test_sir_infected_elimination(self, sir):
        verified, _ = verify_all_conserved(sir)
        red = reduce_by_conserved(verified, verified.conserved[0], sir.state_named("I"))
        table = red.symbol_table()
        assert "N" in table and table["N"].kind == "parameter"
        expected = {
            "S": "-beta*S*(N - S - R)",
            "I": "beta*S*(N - S - R) - lambda*(N - S - R)",
            "R": "lambda*(N - S - R)",
        }
        for s, f in zip(red.states, red.rhs):
            assert semantically_equal(f, parse_expr(expected[s.name], table))

    def test_mm_substrate_elimination(self, mm):
        verified, _ = verify_all_conserved(mm)
        red = reduce_by_conserved(
            verified, verified.conserved_named("S0"), mm.state_named("c")
        )
        table = red.symbol_table()
        expected = {
            "e": "(km1 + k2)*(S0 - s - p) - k1*e*s",
            "s": "km1*(S0 - s - p) - k1*e*s",
            "c": "-(km1*(S0 - s - p) - k1*e*s) - k2*(S0 - s - p)",
            "p": "k2*(S0 - s - p)",
        }
        for s, f in zip(red.states, red.rhs):
            assert semantically_equal(f, parse_expr(expected[s.name], table))

    def test_mm_enzyme_elimination(self, mm):
        verified, _ = verify_all_conserved(mm)
        red = reduce_by_conserved(
            verified, verified.conserved_named("E0"), mm.state_named("e")
        )
        table = red.symbol_table()
        expected = {
            "e": "-(k1*(E0 - c)*s - (km1 + k2)*c)",
            "s": "km1*c - k1*(E0 - c)*s",
            "c": "k1*(E0 - c)*s - (km1 + k2)*c",
            "p": "k2*c",
        }
        for s, f in zip(red.states, red.rhs):
            assert semantically_equal(f, parse_expr(expected[s.name], table))

    def test_double_reduction_dependency_structure(self, mm):
        # enzyme conservation first, then substrate conservation: afterwards
        # both eliminated variables' equations read only from (s, p)
        from odeobs.expr import free_symbols

        verified, _ = verify_all_conserved(mm)
        red1 = reduce_by_conserved(
            verified, verified.conserved_named("E0"), mm.state_named("e")
        )
        red1v, verdicts = verify_all_conserved(red1)
        assert all(v.status == "exact" for v in verdicts)
        red2 = reduce_by_conserved(
            red1v, red1v.conserved_named("S0"), mm.state_named("c")
        )
        for name in ("e", "s", "c", "p"):
            i = [x.name for x in red2.states].index(name)
            deps = {
                s.name for s in free_symbols(red2.rhs[i]) if s.kind == "state"
            }
            assert deps <= {"s", "p"}
        table = red2.symbol_table()
        expected_s = parse_expr(
            "km1*(S0 - s - p) - k1*(E0 - S0 + s + p)*s", table
        )
        i_s = [x.name for x in red2.states].index("s")
        assert semantically_equal(red2.rhs[i_s], expected_s)

    def test_reduction_level_identity_holds_exactly(self, sir):
        # the solved quantity stays conserved on the transformed field
        verified, _ = verify_all_conserved(sir)
        red = reduce_by_conserved(verified, verified.conserved[0], sir.state_named("I"))
        _, verdicts = verify_all_conserved(red)
        assert verdicts[0].status == "exact"

    def test_not_affine(self, lv):
        verified, _ = verify_all_conserved(lv)
        with pytest.raises(NotAffineError):
            reduce_by_conserved(verified, verified.conserved[0], lv.state_named("r"))

    def test_zero_coefficient(self, sir):
        # a quantity that omits a state cannot be solved for that state
        verified, _ = verify_all_conserved(sir)
        q = ConservedQuantity(
            parse_expr("S + I", sir.symbol_table()), "P0", verified="exact"
        )
        with pytest.raises(ZeroCoefficientError):
            reduce_by_conserved(verified, q, sir.state_named("R"))
