import json
import warnings
from pathlib import Path

import pytest

from odeobs.cli import main
from odeobs.expr import MAX_NESTING
from odeobs.report import render_text

from conftest import model_path

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "report-v1.json"


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
