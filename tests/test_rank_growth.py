"""The rank stops growing by order n-1, against the sampled check it replaced.

A verdict at order n-1 or above whose rank falls short of n reports that the
rank is not growing without building order n: the rank of an output stacked
with its derivatives stops at the first order that adds nothing, and that is
order n-1 at the latest.  Here every verdict a report takes that way, in the
shipped models, the generated families and the ln/exp models ranked over
floats, is checked once against the sampled rank of the order n Jacobian,
which is how the flag was computed before.
"""

import pytest

from odeobs import conserved, report
from odeobs.cli import main
from odeobs.embedding import (
    AllPointsDegenerateError,
    DEFAULT_TRIALS,
    build_embedding,
    generic_rank,
    jacobian,
    observability_verdict,
)
from odeobs.model import parse_model
from odeobs.report import build_report

from conftest import model_path
from test_generated_reports import DIGESTS, GENERATED

# y - z is conserved, so y and z reach X only through exp(y - z)
CANCELLING_EXP = (
    "model: cancel\nparams: a\nstates: x, y, z\ndx/dt = exp(y - z) + x/3\n"
    "dy/dt = a*y/7\ndz/dt = a*y/7\nobserve X: x\n"
)
# z never reaches x
LN_EXP = (
    "model: lnexp\nparams: a\nstates: x, y, z\ndx/dt = ln(y^2 + 1) - x/5\n"
    "dy/dt = -a*y\ndz/dt = exp(-z/9)\nobserve X: x\n"
)


def assert_order_n_rank_unchanged(monkeypatch, sys, seed):
    """Check every verdict of ``build_report(sys, seed)`` that reads the flag
    off the order against the sampled order-n rank; return how many."""
    taken = []

    def recording(vsys, obs, **kwargs):
        verdict = observability_verdict(vsys, obs, **kwargs)
        if verdict.rank_growing is False and verdict.k >= vsys.n - 1:
            taken.append((vsys, obs, kwargs.get("trials", DEFAULT_TRIALS), verdict))
        return verdict

    monkeypatch.setattr(report, "observability_verdict", recording)
    monkeypatch.setattr(conserved, "observability_verdict", recording)
    build_report(sys, seed=seed)
    for vsys, obs, trials, verdict in taken:
        higher = generic_rank(
            jacobian(build_embedding(vsys, obs, vsys.n), vsys), seed=seed, trials=trials
        )
        assert higher.generic_rank == verdict.rank.generic_rank, (vsys.name, obs.label)
    return len(taken)


@pytest.mark.parametrize("name", ["sir", "mm", "toy", "lv"])
def test_shipped_models_at_seeds_0_to_7(monkeypatch, name):
    sys = parse_model(model_path(name).read_text())
    taken = [assert_order_n_rank_unchanged(monkeypatch, sys, seed) for seed in range(8)]
    # sir at I, mm at e and c, toy at R; lv is observable from either species
    assert all(taken) if name != "lv" else not any(taken)


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_generated_families(monkeypatch, name, seed):
    assert assert_order_n_rank_unchanged(monkeypatch, parse_model(GENERATED[name]), seed)


@pytest.mark.parametrize("text", [CANCELLING_EXP, LN_EXP], ids=["cancelling-exp", "ln-exp"])
def test_ln_exp_models_ranked_over_floats(monkeypatch, text):
    sys = parse_model(text)
    for seed in range(16):
        assert assert_order_n_rank_unchanged(monkeypatch, sys, seed) == 1


# x1 moves at a rate that is zero as a polynomial but not as a tree, so only
# x1 is seen; the rhs of x3, the state farthest from the output, divides by
# a constant zero (ln keeps it out of the exact normal form).  Every row of
# the order-n Jacobian has that pole; the rows up to order n-1 do not.
POLE_AT_ORDER_N = (
    "model: pole\nparams: k\nstates: x1, x2, x3\n"
    "dx1/dt = x2*((x1 + 1)^2 - x1^2 - 2*x1 - 1)\n"
    "dx2/dt = x3\n"
    "dx3/dt = x3*ln(x3)/(k - k)\n"
    "observe y: x1\n"
)


def test_pole_only_at_order_n_is_no_longer_an_analysis_error(tmp_path, capsys):
    sys = parse_model(POLE_AT_ORDER_N)
    obs = sys.observations[0]
    with pytest.raises(AllPointsDegenerateError):
        generic_rank(jacobian(build_embedding(sys, obs, sys.n), sys), trials=2)
    v = observability_verdict(sys, obs, seed=0, trials=2)
    assert (v.k, v.rank.generic_rank, v.rank_growing) == (2, 1, False)
    model = tmp_path / "pole.model"
    model.write_text(POLE_AT_ORDER_N)
    assert main(["analyze", str(model), "--trials", "2"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "rank 1/3 at k=2 (probabilistic) -> not observable" in out
