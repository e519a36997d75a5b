import json
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import odeobs.cli
from odeobs.cli import main
from odeobs.expr import MAX_NESTING, ExprError
from odeobs.model import ModelError, parse_model
from odeobs.report import render_text

from conftest import model_path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA_PATH = ROOT / "schema" / "report-v1.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_sir_text_verdicts(self, capsys):
        code, out, _ = run(capsys, "analyze", str(model_path("sir")))
        assert code == 0
        assert "R = (R): graphical sufficient" in out
        assert "observable-generic" in out
        assert "I = (I): graphical insufficient" in out
        assert "+ observe {S}: sufficient" in out
        assert "+ observe {I}: sufficient" in out

    def test_mm_reproduces_sensor_story(self, capsys):
        code, out, _ = run(capsys, "analyze", str(model_path("mm")))
        assert code == 0
        assert "minimal sensor sets: {p}" in out
        assert "+ observe {s}: sufficient" in out
        assert "+ observe {c}: sufficient" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "analyze", "no_such.model")
        assert code == 1
        assert "cannot read" in err

    def test_broken_model_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text("model: x\nparams: a\nstates: y\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "parse error" in err

    def test_all_sample_points_at_poles_is_named_analysis_error(self, tmp_path, capsys):
        # the rhs of x has a denominator that is identically zero; ln keeps it
        # out of the exact normal form, so only rank sampling meets the pole
        model = tmp_path / "pole.model"
        model.write_text(
            "model: pole\nparams: k\nstates: x, z\n"
            "dx/dt = x*ln(x)/(k - k)\ndz/dt = -z\nobserve x: x\n"
        )
        code, _, err = run(capsys, "analyze", str(model), "--trials", "1")
        assert code == 2
        assert err.startswith("analysis error: rank sampling: ")
        assert "internal error" not in err

    @pytest.mark.parametrize("rhs", ["exp(y)", "y*ln(y)"])
    def test_points_outside_the_float_domain_are_drawn_again(self, tmp_path, capsys, rhs):
        # exp(y) overflows for y > 709 and ln(y) needs y > 0: both are hit
        # by the sample points of every seed below
        model = tmp_path / "expo.model"
        model.write_text(
            f"model: expo\nparams: a\nstates: x, y\ndx/dt = {rhs}\n"
            "dy/dt = -a*y\nobserve X: x\n"
        )
        for seed in ("0", "1", "2"):
            code, out, err = run(capsys, "analyze", str(model), "--seed", seed)
            assert (code, err) == (0, "")
            assert "rank 2/2 at k=1 (probabilistic)" in out

    def test_cancelling_exp_terms_do_not_raise_the_float_rank(self, tmp_path, capsys):
        # y - z is conserved, so y and z reach X only through exp(y - z): the
        # rank is 2/3, and the second derivative's y and z entries are sums of
        # terms that cancel, which evaluate to roundoff instead of 0
        model = tmp_path / "cancel.model"
        model.write_text(
            "model: cancel\nparams: a\nstates: x, y, z\ndx/dt = exp(y - z) + x/3\n"
            "dy/dt = a*y/7\ndz/dt = a*y/7\nobserve X: x\n"
        )
        for seed in map(str, range(8)):
            code, out, err = run(capsys, "analyze", str(model), "--seed", seed)
            assert (code, err) == (0, "")
            assert "rank 2/3 at k=2 (probabilistic)" in out

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_input_error(self, capsys, trials):
        code, out, err = run(capsys, "analyze", str(model_path("sir")), "--trials", trials)
        assert (code, out) == (1, "")
        assert err == f"error: --trials must be at least 1, got {trials}\n"

    def test_singular_elimination_is_named_analysis_error(self, capsys, monkeypatch):
        import odeobs.cli
        from odeobs.linalg import SingularMatrixError

        def singular(*args, **kwargs):
            raise SingularMatrixError("singular at column 0")

        monkeypatch.setattr(odeobs.cli, "build_report", singular)
        code, _, err = run(capsys, "analyze", str(model_path("sir")))
        assert code == 2
        assert err == "analysis error: elimination: singular at column 0\n"

    def test_reports_byte_identical_across_runs(self, tmp_path, capsys):
        for name in ("sir", "mm", "toy", "lv"):
            paths = []
            for run_idx in (1, 2):
                out_path = tmp_path / f"{name}.{run_idx}.json"
                code, _, _ = run(
                    capsys,
                    "analyze",
                    str(model_path(name)),
                    "--seed",
                    "0",
                    "--json",
                    str(out_path),
                )
                assert code == 0
                paths.append(out_path)
            assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_reports_do_not_depend_on_hash_order(self, tmp_path):
        # symbols hash by address and names by PYTHONHASHSEED; neither order
        # may reach a report
        reports = {}
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
            )
            for name in ("sir", "mm", "toy", "lv"):
                out_path = tmp_path / f"{name}.{hash_seed}.json"
                subprocess.run(
                    [sys.executable, "-m", "odeobs.cli", "analyze", str(model_path(name)),
                     "--json", str(out_path)],
                    env=env, check=True, timeout=120, stdout=subprocess.DEVNULL,
                )
                reports.setdefault(name, []).append(out_path.read_bytes())
        for name, (first, second) in reports.items():
            assert first == second, name

    def test_json_validates_against_shipped_schema(self, tmp_path, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA_PATH.read_text())
        for name in ("sir", "mm", "toy", "lv"):
            out_path = tmp_path / f"{name}.json"
            run(capsys, "analyze", str(model_path(name)), "--json", str(out_path))
            jsonschema.validate(json.loads(out_path.read_text()), schema)

    def test_text_summary_is_derived_from_json(self, tmp_path, capsys):
        out_path = tmp_path / "sir.json"
        code, out, _ = run(
            capsys, "analyze", str(model_path("sir")), "--json", str(out_path)
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert render_text(report) == out

    def test_seed_changes_sample_points_not_verdicts(self, tmp_path, capsys):
        reports = []
        for seed in ("0", "1"):
            out_path = tmp_path / f"sir.{seed}.json"
            run(
                capsys,
                "analyze",
                str(model_path("sir")),
                "--seed",
                seed,
                "--json",
                str(out_path),
            )
            reports.append(json.loads(out_path.read_text()))
        a, b = reports
        assert a != b  # sample points differ
        for obs_a, obs_b in zip(a["observations"], b["observations"]):
            assert (
                obs_a["assessment"]["observable_generic"]
                == obs_b["assessment"]["observable_generic"]
            )

    def test_explicit_k_flag(self, tmp_path, capsys):
        out_path = tmp_path / "sir.json"
        code, _, _ = run(
            capsys,
            "analyze",
            str(model_path("sir")),
            "--k",
            "4",
            "--json",
            str(out_path),
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["k"] == 4
        assert report["observations"][0]["assessment"]["k"] == 4

    def test_unwritable_json_path_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "sir.json"
        code, out, err = run(capsys, "analyze", str(model_path("sir")), "--json", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_options_do_not_carry_over_to_the_next_call(self, capsys):
        # one parser serves every call; each call starts from the defaults
        toy = str(model_path("toy"))
        for argv, header in (
            (["--k", "1"], "seed: 0  k: 1  trials: 8"),
            ([], "seed: 0  k: auto  trials: 8"),
            (["--trials", "3", "--seed", "2"], "seed: 2  k: auto  trials: 3"),
            ([], "seed: 0  k: auto  trials: 8"),
        ):
            code, out, _ = run(capsys, "analyze", toy, *argv)
            assert code == 0
            assert header in out.splitlines()


class TestGraph:
    def test_sir_original_structure(self, capsys):
        code, out, _ = run(capsys, "graph", str(model_path("sir")))
        assert code == 0
        assert "R [root=true, penwidth=2];" in out
        assert out.count(" -> ") == 5

    def test_sir_reduced_makes_infected_root(self, capsys):
        code, out, _ = run(capsys, "graph", str(model_path("sir")), "--reduce", "N:I")
        assert code == 0
        assert "I [root=true, penwidth=2];" in out
        assert "R [root=true" not in out

    def test_mm_substrate_reduction_makes_complex_root(self, capsys):
        code, out, _ = run(capsys, "graph", str(model_path("mm")), "--reduce", "S0:c")
        assert code == 0
        assert "c [root=true, penwidth=2];" in out
        assert "p [root=true" not in out

    def test_dot_file_written(self, tmp_path, capsys):
        out_path = tmp_path / "sir.dot"
        code, out, _ = run(
            capsys, "graph", str(model_path("sir")), "--dot", str(out_path)
        )
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("digraph inference {")

    def test_unwritable_dot_path_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "sir.dot"
        code, out, err = run(capsys, "graph", str(model_path("sir")), "--dot", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_bad_reduce_spec(self, capsys):
        code, _, err = run(capsys, "graph", str(model_path("sir")), "--reduce", "N")
        assert code == 1

    def test_unknown_level(self, capsys):
        code, _, err = run(capsys, "graph", str(model_path("sir")), "--reduce", "Z:I")
        assert code == 1


class TestVerify:
    def test_all_fixtures_exact(self, capsys):
        for name, levels in (
            ("sir", ["N"]),
            ("mm", ["E0", "S0"]),
            ("toy", ["Q0"]),
            ("lv", ["Q0"]),
        ):
            code, out, _ = run(capsys, "verify", str(model_path(name)))
            assert code == 0
            for level in levels:
                assert f"{level} = " in out and ": exact" in out

    def test_refuted_exits_three_with_witness(self, tmp_path, capsys):
        bad = tmp_path / "bad.model"
        bad.write_text(
            "model: bad\n"
            "params: beta, lambda\n"
            "states: S, I, R\n"
            "dS/dt = -beta*S*I\n"
            "dI/dt = beta*S*I - lambda*I\n"
            "dR/dt = lambda*I\n"
            "conserved W: S + I\n"
        )
        code, out, _ = run(capsys, "verify", str(bad))
        assert code == 3
        assert "refuted" in out and "witness" in out

    def test_refuted_with_constant_reduced_numerator_has_witness(self, tmp_path, capsys):
        # the residual x/x is 1: its reduced numerator is constant, but the
        # numerator x of its unreduced form is not, so a point is drawn, and
        # it is off the pole at x = 0
        model = tmp_path / "unit.model"
        model.write_text(
            "model: unit\nparams: k\nstates: x\ndx/dt = x/x\nconserved Q: x\nobserve y: x\n"
        )
        code, out, _ = run(capsys, "verify", str(model), "--seed", "0")
        assert (code, out) == (3, "Q = x: refuted (witness x=770880)\n")

    def test_refuted_without_witness_exits_three(self, tmp_path, capsys):
        # the residual is the constant 1: refuted, with no point to show
        model = tmp_path / "drift.model"
        model.write_text("model: drift\nparams: a\nstates: x\ndx/dt = 1\nconserved Q: x\n")
        code, out, err = run(capsys, "verify", str(model))
        assert (code, out, err) == (3, "Q = x: refuted\n", "")

    def test_zero_test_without_samples_is_named_analysis_error(self, tmp_path, capsys):
        # every sample point is a pole of Q's derivative: no verdict, not "probabilistic"
        model = tmp_path / "undecided.model"
        model.write_text(
            "model: undecided\nparams: k\nstates: x, z\ndx/dt = -z\ndz/dt = -z\n"
            "conserved Q: x*ln(x)/(k - k)\nobserve x: x\n"
        )
        for command in ("verify", "analyze"):
            code, out, err = run(capsys, command, str(model))
            assert (code, out) == (2, "")
            assert err.startswith("analysis error: zero test: none of 3200 sample points")


class TestModelNesting:
    def _write(self, tmp_path, rhs):
        model = tmp_path / "deep.model"
        model.write_text(f"model: deep\nparams: a\nstates: x\ndx/dt = {rhs}\n")
        return str(model)

    def test_deepest_allowed_rhs_loads(self, tmp_path, capsys):
        rhs = "(" * MAX_NESTING + "a*x" + ")" * MAX_NESTING
        code, out, err = run(capsys, "verify", self._write(tmp_path, rhs))
        assert (code, err) == (0, "")
        assert out == "(no conserved quantities declared)\n"

    def test_deepest_nested_product_simulates(self, tmp_path, capsys):
        # a*x*(1 - a*x*(1 - ...)): the RK4 step of the deepest accepted rhs
        # still compiles and runs
        depth = MAX_NESTING
        rhs = "a*x*(1 - " * depth + "x" + ")" * depth
        code, out, err = run(
            capsys, "simulate", self._write(tmp_path, rhs), "--x0", "0.5",
            "--params", "a=0.1", "--dt", "0.1", "--T", "1",
        )
        assert (code, err) == (0, "")
        assert out.startswith("integrated deep: 11 points")

    def test_longest_division_chain_verifies_and_simulates(self, tmp_path, capsys):
        # x/a/a/.../a is not nested in the text, but its tree is as deep as
        # the chain is long
        model = self._write(tmp_path, "x" + "/a" * MAX_NESTING)
        code, out, err = run(capsys, "verify", model)
        assert (code, err) == (0, "")
        code, out, err = run(
            capsys, "simulate", model, "--x0", "0.5", "--params", "a=1",
            "--dt", "0.1", "--T", "1",
        )
        assert (code, err) == (0, "")
        assert out.startswith("integrated deep: 11 points")

    @pytest.mark.parametrize("divisions", [MAX_NESTING + 1, 1500])
    def test_longer_division_chain_is_a_parse_error(self, tmp_path, capsys, divisions):
        model = self._write(tmp_path, "x" + "/a" * divisions)
        simulate = ("simulate", model, "--x0", "0.5", "--params", "a=1", "--dt", "0.1", "--T", "1")
        for command in (simulate, ("analyze", model)):
            code, _, err = run(capsys, *command)
            assert code == 1
            assert err.startswith("error: model parse error: ")
            assert "nesting deeper than" in err

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 400])
    def test_deeper_rhs_is_a_parse_error(self, tmp_path, capsys, depth):
        rhs = "(" * depth + "a*x" + ")" * depth
        code, _, err = run(capsys, "analyze", self._write(tmp_path, rhs))
        assert code == 1
        assert err.startswith("error: model parse error: ")
        assert "nesting deeper than" in err
        assert "internal error" not in err


class TestMutatedModels:
    ALPHABET = "abcdefxyzSIRkpemc0123456789 +-*/^().,:=#_\n"

    def _mutate(self, rng, text):
        """One to three character edits: delete, insert, replace, or copy a
        span of up to 20 characters elsewhere."""
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(text) + 1)
            op = rng.randrange(4)
            if op == 0:
                text = text[:i] + text[i + 1:]
            elif op == 1:
                text = text[:i] + rng.choice(self.ALPHABET) + text[i:]
            elif op == 2:
                text = text[:i] + rng.choice(self.ALPHABET) + text[i + 1:]
            else:
                a, b = sorted((i, rng.randrange(len(text) + 1)))
                text = text[:b] + text[a:b][:20] + text[b:]
        return text

    # each shipped model with a conserved quantity and a state to eliminate
    REDUCTIONS = {"sir": "N:S", "mm": "S0:s", "toy": "Q0:R", "lv": "Q0:r"}
    # and with an initial state and parameter values for it
    SIMULATIONS = {
        "sir": ("997,3,0", "beta=0.0004,lambda=0.04"),
        "mm": ("1,2,0,0", "k1=1,km1=0.5,k2=0.3"),
        "toy": ("1,1", "a=1"),
        "lv": ("2,1", "R=1,D=0.5,B=0.2,M=0.6"),
    }

    def _cases(self):
        """300 seeded mutations of the shipped models, each with the name of
        the model it was mutated from."""
        rng = random.Random(20261018)
        shipped = [(name, model_path(name).read_text()) for name in self.REDUCTIONS]
        for _ in range(300):
            name, text = rng.choice(shipped)
            yield name, self._mutate(rng, text)

    def test_analyze_never_reaches_the_catch_all(self, tmp_path, capsys):
        model = tmp_path / "mutated.model"
        codes = set()
        for case, (_, text) in enumerate(self._cases()):
            model.write_text(text)
            code, _, err = run(capsys, "analyze", str(model), "--trials", "2")
            assert code in (0, 1, 2), (case, text)
            assert not err.startswith("internal error"), (case, text, err)
            codes.add(code)
        assert {0, 1} <= codes

    # --k stops at n+1 below: a huge --k extends the embedding once per order
    # with no bound, a known runaway (ROADMAP items 3 and 10: a work budget,
    # or refusing --k above n-1), not what this checks
    K_FLAGS = ("auto", "0", "1", "2", "3", "4", "5", "-1", "1.5", "x", "")
    TRIALS_FLAGS = ("1", "2", "3", "0", "-1", "x")
    SEED_FLAGS = ("0", "7", "-3", str(2**40), "x")

    def test_analyze_flags_never_reach_the_catch_all(self, tmp_path, capsys):
        model = tmp_path / "mutated.model"
        rng = random.Random(20261019)
        shipped = [(name, model_path(name).read_text()) for name in self.REDUCTIONS]
        states = {name: parse_model(text).n for name, text in shipped}
        codes = set()
        for case, (name, text) in enumerate([*self._cases(), *shipped]):
            try:
                n = parse_model(text).n
            except (ModelError, ExprError):  # analyze exits 1 before reading --k
                n = states[name]
            k = rng.choice([f for f in self.K_FLAGS if not f.isdigit() or int(f) <= n + 1])
            flags = ("--k", k, "--trials", rng.choice(self.TRIALS_FLAGS), "--seed", rng.choice(self.SEED_FLAGS))
            model.write_text(text)
            code, _, err = run(capsys, "analyze", str(model), *flags)
            assert code in (0, 1, 2), (case, flags, text)
            assert not err.startswith("internal error"), (case, flags, text, err)
            codes.add(code)
        assert {0, 1} <= codes

    def test_verify_and_reduced_graph_never_reach_the_catch_all(self, tmp_path, capsys):
        model = tmp_path / "mutated.model"
        codes = {"verify": set(), "graph": set()}
        for case, (name, text) in enumerate(self._cases()):
            model.write_text(text)
            reduce = self.REDUCTIONS[name]
            for argv in (("verify", str(model)), ("graph", str(model), "--reduce", reduce)):
                code, _, err = run(capsys, *argv)
                assert code in (0, 1, 2, 3), (case, argv, text)
                assert not err.startswith("internal error"), (case, argv, text, err)
                codes[argv[0]].add(code)
        assert {0, 1, 3} <= codes["verify"]
        assert {0, 1, 2} <= codes["graph"]

    def test_simulate_and_plain_graph_never_reach_the_catch_all(self, tmp_path, capsys):
        model = tmp_path / "mutated.model"
        codes = {"simulate": set(), "graph": set()}
        for case, (name, text) in enumerate(self._cases()):
            model.write_text(text)
            x0, params = self.SIMULATIONS[name]
            simulate = ("simulate", str(model), "--x0", x0, "--params", params, "--dt", "0.1", "--T", "1")
            for argv in (simulate, ("graph", str(model))):
                code, _, err = run(capsys, *argv)
                assert code in (0, 1, 2), (case, argv, text)
                assert not err.startswith("internal error"), (case, argv, text, err)
                codes[argv[0]].add(code)
        assert {0, 1} <= codes["simulate"]
        assert {0, 1} <= codes["graph"]


class TestSimulate:
    def _still(self, tmp_path, quantity):
        model = tmp_path / "still.model"
        model.write_text(
            "model: still\nparams: a\nstates: x, y\n"
            f"dx/dt = 0*x\ndy/dt = 0*y\nconserved Q: {quantity}\n"
        )
        return str(model)

    def test_pole_on_the_trajectory_is_not_evaluable(self, tmp_path, capsys):
        # y stays at 1, the pole of Q; the drift must not read nan or inf
        model = self._still(tmp_path, "x + 1/(y - 1)")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(
                capsys, "simulate", model, "--x0", "1,1", "--params", "a=1",
                "--dt", "0.1", "--T", "1",
            )
        assert code == 0
        assert err == ""
        assert out.splitlines()[-1] == "drift Q: not evaluable (float division by zero)"

    def test_overflowing_quantity_is_not_evaluable(self, tmp_path, capsys):
        model = self._still(tmp_path, "x^400 + y")
        code, out, err = run(
            capsys, "simulate", model, "--x0", "10,1", "--params", "a=1",
            "--dt", "0.1", "--T", "1",
        )
        assert code == 0
        assert "internal error" not in err
        assert out.splitlines()[-1].startswith("drift Q: not evaluable (")

    def test_sir_run_with_csv_and_drift(self, tmp_path, capsys):
        out_path = tmp_path / "sir.csv"
        code, out, _ = run(
            capsys,
            "simulate",
            str(model_path("sir")),
            "--x0",
            "997,3,0",
            "--params",
            "beta=0.0004,lambda=0.04",
            "--dt",
            "0.01",
            "--T",
            "100",
            "--csv",
            str(out_path),
        )
        assert code == 0
        assert "drift N:" in out
        drift = float(out.split("drift N:")[1].strip())
        assert drift < 1e-6
        lines = out_path.read_text().strip().split("\n")
        assert lines[0] == "t,S,I,R"
        assert len(lines) == 10002

    def test_unwritable_csv_path_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "sir.csv"
        code, out, err = run(
            capsys, "simulate", str(model_path("sir")), "--x0", "997,3,0",
            "--params", "beta=0.0004,lambda=0.04", "--dt", "0.1", "--T", "1",
            "--csv", str(path),
        )
        assert (code, out) == (1, "")
        assert err == f"error: cannot write {path}: No such file or directory\n"

    def test_divergence_flagged(self, tmp_path, capsys):
        code, out, _ = run(
            capsys,
            "simulate",
            str(model_path("toy")),
            "--x0",
            "1,1",
            "--params",
            "a=80",
            "--dt",
            "0.1",
            "--T",
            "20",
        )
        assert code == 0
        assert "divergence" in out

    def test_wrong_arity_is_input_error(self, capsys):
        code, _, err = run(
            capsys,
            "simulate",
            str(model_path("sir")),
            "--x0",
            "1,2",
            "--params",
            "beta=1,lambda=1",
            "--dt",
            "0.1",
            "--T",
            "1",
        )
        assert code == 1
        assert "--x0" in err

    # none of these grids is allocated: each is refused before integration
    @pytest.mark.parametrize(
        "dt, T, message",
        [
            ("nan", "1", "--dt must be a finite number, got nan"),
            ("0.1", "nan", "--T must be a finite number, got nan"),
            ("inf", "1", "--dt must be a finite number, got inf"),
            ("0.1", "inf", "--T must be a finite number, got inf"),
            ("1e-200", "1e200", "--T 1e+200 over --dt 1e-200 is more steps than an array can index"),
            ("1e-300", "1", "--T 1.0 over --dt 1e-300 is more steps than an array can index"),
        ],
    )
    def test_grid_numpy_cannot_index_is_input_error(self, capsys, dt, T, message):
        code, out, err = run(
            capsys, "simulate", str(model_path("sir")), "--x0", "997,3,0",
            "--params", "beta=0.0004,lambda=0.04", "--dt", dt, "--T", T,
        )
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_grid_numpy_cannot_allocate_is_input_error(self, capsys):
        # 2.4e15 bytes is past the user address space: refused at once, nothing touched
        code, out, err = run(
            capsys, "simulate", str(model_path("sir")), "--x0", "1,1,1",
            "--params", "beta=1,lambda=1", "--dt", "1e-9", "--T", "1e5",
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: --T 100000.0 over --dt 1e-09 needs a 2.4e+15-byte trajectory, "
            "more memory than can be allocated\n"
        )

    @pytest.mark.parametrize(
        "params, message",
        [
            ("beta=1", "missing parameter values for ['lambda']"),
            ("beta=1,lambda=1,gamma=2", "unknown parameter 'gamma'"),
        ],
    )
    def test_parameter_error_is_printed_without_quotes(self, capsys, params, message):
        code, out, err = run(
            capsys, "simulate", str(model_path("sir")), "--x0", "1,1,1",
            "--params", params, "--dt", "0.1", "--T", "1",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_missing_params_option_names_the_parameter(self, capsys):
        code, out, err = run(
            capsys, "simulate", str(model_path("toy")), "--x0", "1,1", "--dt", "0.1", "--T", "1"
        )
        assert (code, out, err) == (1, "", "error: missing parameter values for ['a']\n")

    @pytest.mark.parametrize(
        "x0, params, message",
        [
            # a non-finite start printed "1 points" and "divergence", exit 0
            ("nan,0.1,0", "beta=0.5,lambda=0.1", "--x0 values must be finite numbers, got nan"),
            ("997,-inf,0", "beta=0.5,lambda=0.1", "--x0 values must be finite numbers, got -inf"),
            # a nan rate printed "drift N: 0.000e+00", which reads as exact conservation
            ("997,3,0", "beta=nan,lambda=0.1", "parameter beta must be a finite number, got nan"),
            ("997,3,0", "beta=0.5,lambda=inf", "parameter lambda must be a finite number, got inf"),
            # the last value of a repeated name was used without a word
            ("997,3,0", "beta=0.5,lambda=0.1,beta=1", "--params gives beta more than once"),
            ("997,3,0", "beta=0.5, beta =0.5,lambda=0.1", "--params gives beta more than once"),
            # values that do not read as a pair or a number
            ("997,3,0", "beta", "--params expects name=value pairs, got 'beta'"),
            ("997,3,0", "beta=abc,lambda=0.1", "bad parameter value in 'beta=abc'"),
            (
                "997,abc,0",
                "beta=1,lambda=0.1",
                "bad --x0 value: could not convert string to float: 'abc'",
            ),
        ],
    )
    def test_non_finite_or_repeated_values_are_input_errors(self, capsys, x0, params, message):
        code, out, err = run(
            capsys, "simulate", str(model_path("sir")), "--x0", x0,
            "--params", params, "--dt", "0.1", "--T", "1",
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_pole_of_the_right_hand_side_is_analysis_error(self, tmp_path, capsys):
        model = tmp_path / "pole.model"
        model.write_text("model: pole\nparams: a\nstates: x, y\ndx/dt = 1/(y - 1)\ndy/dt = 0*y\n")
        code, out, err = run(
            capsys, "simulate", str(model), "--x0", "1,1",
            "--params", "a=1", "--dt", "0.1", "--T", "1",
        )
        assert (code, out) == (2, "")
        assert err == "integration failed: evaluation failed at t=0.0: division by zero\n"

    def test_non_finite_start_is_input_error_where_the_first_stage_fails(self, tmp_path, capsys):
        model = tmp_path / "lg.model"
        model.write_text("model: lg\nparams: a\nstates: x, y\ndx/dt = a*ln(y)\ndy/dt = -a*y\n")
        code, out, err = run(
            capsys, "simulate", str(model), "--x0", "1,-inf",
            "--params", "a=1", "--dt", "0.1", "--T", "1",
        )
        assert (code, out, err) == (1, "", "error: --x0 values must be finite numbers, got -inf\n")

    # model -> (x0, params) of a run that stays finite
    SHIPPED = {
        "sir": ("997,3,0", "beta=0.0004,lambda=0.04"),
        "toy": ("2,5", "a=1"),
        "lv": ("2,1", "R=2,D=1,B=1,M=1"),
        "mm": ("1,5,0,0", "k1=2,km1=1,k2=0.5"),
    }
    EXTREMES = ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e-300", "1e300"]

    def test_numeric_flags_never_reach_the_catch_all(self, capsys):
        rng = random.Random(16)
        codes, unallocatable = set(), 0
        for case in range(120):
            name = rng.choice(sorted(self.SHIPPED))
            x0, params = self.SHIPPED[name]
            n = len(x0.split(","))
            while True:
                dt = rng.choice(self.EXTREMES + ["0.01", "0.25", "1e-9"])
                T = rng.choice(self.EXTREMES + ["1", "10", "1e5"])
                steps = float(T) / float(dt) if float(dt) > 0 else 0.0
                # a grid between the bands would be allocated and integrated for minutes
                if not 1e4 < steps < 2**50 / (8 * n):
                    break
            entries = x0.split(",")
            if rng.random() < 0.5:
                entries[rng.randrange(n)] = rng.choice(self.EXTREMES)
            # "--flag=value", so that argparse reads a leading minus as part of the value
            argv = (
                "simulate", str(model_path(name)), "--x0=" + ",".join(entries),
                "--params", params, "--dt=" + dt, "--T=" + T,
            )
            code, _, err = run(capsys, *argv)
            assert code in (0, 1, 2), (case, argv, err)
            assert "internal error" not in err, (case, argv, err)
            codes.add(code)
            unallocatable += "more memory than can be allocated" in err
        # a finite start on a grid no address space holds: 1e14 steps of two
        # states are 1.6e15 bytes, so nothing is integrated
        _, _, err = run(
            capsys, "simulate", str(model_path("lv")), "--x0=2,1",
            "--params", self.SHIPPED["lv"][1], "--dt=1e-9", "--T=1e5",
        )
        unallocatable += "more memory than can be allocated" in err
        assert {0, 1} <= codes
        assert unallocatable > 0


SIR_SIMULATION = ("--x0", "997,3,0", "--params", "beta=0.0004,lambda=0.04", "--dt", "0.1", "--T", "1")


@pytest.mark.parametrize(
    "command, options, work",
    [
        ("analyze", ("--json",), "build_report"),
        ("graph", ("--dot",), "build_graph"),
        ("simulate", SIR_SIMULATION + ("--csv",), "integrate_rk4"),
    ],
)
def test_unwritable_path_fails_before_the_work(tmp_path, capsys, monkeypatch, command, options, work):
    def not_reached(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(odeobs.cli, work, not_reached)
    path = tmp_path / "missing" / "sir.out"
    code, out, err = run(capsys, command, str(model_path("sir")), *options, str(path))
    assert (code, out) == (1, "")
    assert err == f"error: cannot write {path}: No such file or directory\n"
    # a writable path is created empty before the work, and stays so when the work fails
    path = tmp_path / "sir.out"
    code, _, err = run(capsys, command, str(model_path("sir")), *options, str(path))
    assert (code, err) == (2, f"internal error: {work} ran\n")
    assert path.read_text() == ""



POLE_MODEL = "model: pole\nparams: k\nstates: x\ndx/dt = k/(x - x)\n"
# command -> its model, options, output flag, exit code and message
FAILURES = {
    "analyze": (POLE_MODEL, (), "--json", 2, "analysis error: division by zero in k/(x - x)\n"),
    "graph": (POLE_MODEL, (), "--dot", 2, "analysis error: division by zero in k/(x - x)\n"),
    "simulate": (
        POLE_MODEL,
        ("--x0", "1", "--params", "k=1", "--dt", "0.1", "--T", "1"),
        "--csv",
        2,
        "integration failed: evaluation failed at t=0.0: division by zero\n",
    ),
    # a refuted quantity is not reduced, and no graph is written
    "graph --reduce": (
        "model: grow\nparams: k\nstates: x\ndx/dt = k\nconserved Q: x\n",
        ("--reduce", "Q:x"),
        "--dot",
        3,
        "conserved quantity Q is refuted; not reducing\n",
    ),
}


@pytest.mark.parametrize("command", sorted(FAILURES))
def test_failed_command_leaves_no_output_file_behind(tmp_path, capsys, command):
    text, options, flag, code, message = FAILURES[command]
    model = tmp_path / "failing.model"
    model.write_text(text)
    argv = [command.split()[0], str(model), *options, flag]
    # a path that did not exist is absent again after the failure
    path = tmp_path / "new.out"
    assert run(capsys, *argv, str(path)) == (code, "", message)
    assert not path.exists()
    # an existing file keeps its bytes
    path.write_bytes(b"kept\r\n")
    assert run(capsys, *argv, str(path)) == (code, "", message)
    assert path.read_bytes() == b"kept\r\n"
    # an unwritable path still fails before any work
    path = tmp_path / "missing" / "new.out"
    assert run(capsys, *argv, str(path)) == (
        1, "", f"error: cannot write {path}: No such file or directory\n"
    )
