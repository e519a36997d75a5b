"""Tests of the benchmark itself: generators, checks, tracer, time limit.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import families  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from odeobs import (  # noqa: E402
    build_graph,
    build_report,
    integrate_rk4,
    minimal_sensor_sets,
    parse_model,
    reduce_by_conserved,
    scc_condensation,
    verify_all_conserved,
)
from odeobs.expr import parse_expr  # noqa: E402
import reference  # noqa: E402
from reference import SpeedSampler  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("n", [3, 4])
def test_chain_verdicts(n):
    report = build_report(parse_model(families.chain(n, seed=7)), seed=7)
    assert families.check_chain(report, n) == []


def test_twin_verdicts():
    report = build_report(parse_model(families.twin(2, seed=3)), seed=3)
    assert families.check_twin(report, 2) == []


@pytest.mark.parametrize("t", [1, 2])
def test_mm_tail_verdicts(t):
    report = build_report(parse_model(families.mm_tail(t, seed=5)), seed=5)
    assert families.check_mm_tail(report, t) == []


def test_checks_reject_a_wrong_verdict():
    report = build_report(parse_model(families.chain(3)), seed=0)
    assert families.check_chain(report, 4) != []
    for group in report["alternatives"]:
        for result in group["results"]:
            result["positive"] = True
    assert families.check_chain(report, 3) != []


def test_ring_reduction_menu_and_drift():
    ring = parse_model(families.ring(6))
    verified, _ = verify_all_conserved(ring)
    reduced = reduce_by_conserved(verified, verified.conserved[0], ring.state_named("x0"))
    menu = minimal_sensor_sets(scc_condensation(build_graph(reduced)))
    assert [s.names() for s in menu.sets] == [("x0",)]
    start = dict(zip((f"x{i}" for i in range(6)), families.ring_x0(6)))
    traj = integrate_rk4(ring, start, {"k": 1.0}, 0.01, 20.0)
    totals = traj.values.sum(axis=1)
    assert abs(totals - totals[0]).max() < families.RING_DRIFT_LIMIT


def test_seed_permutes_declaration_order_only():
    a, b = parse_model(families.twin(3, seed=1)), parse_model(families.twin(3, seed=2))
    assert [s.name for s in a.states] != [s.name for s in b.states]
    assert sorted(s.name for s in a.states) == sorted(s.name for s in b.states)
    assert {s.name: str(f) for s, f in zip(a.states, a.rhs)} == {
        s.name: str(f) for s, f in zip(b.states, b.rhs)
    }


def _outcomes(workload, pass_index=0):
    stats = run.Stats()
    wall, _ = run.run_pass(workload.requests(pass_index), stats)
    return wall, stats


def test_shipped_pass_matches_recorded_digests(tmp_path):
    wall, stats = _outcomes(workloads.Shipped(ROOT, 3, tmp_path))
    assert wall > 0 and stats.attempted == 4 and stats.failed == 0, stats.problems
    assert 0 < stats.exact < stats.verdicts


def test_shipped_verdict_check_flags_a_changed_report():
    report = {"conserved": [], "graph": {"minimal_sensor_sets": [["R"]]},
              "observations": [], "alternatives": []}
    assert workloads.check_shipped("sir", report) != []


def test_structural_pass(tmp_path):
    wall, stats = _outcomes(workloads.Structural(ROOT, 1, tmp_path))
    assert stats.attempted == 4 and stats.failed == 0, stats.problems
    assert stats.exact == stats.verdicts == 1


def test_enzyme_warm_up_is_checked_not_measured(tmp_path):
    workload = workloads.Enzyme(ROOT, 2, tmp_path)
    stats = run.Stats()
    run.warm_up(workload, stats)
    assert stats.attempted == 1 and stats.failed == 0, stats.problems
    assert stats.request_s == [] and stats.verdicts == 0
    assert [r.label for r in workload.requests(0)] == ["report mm-tail-2"]


def test_request_past_its_limit_fails(monkeypatch):
    monkeypatch.setattr(run, "REQUEST_LIMIT_S", 0.05)
    slow = workloads.Request("sleep", lambda: time.sleep(5), lambda _: workloads.Outcome())
    stats = run.Stats()
    t0 = time.perf_counter()
    run.run_pass([slow], stats)
    assert time.perf_counter() - t0 < 2
    assert stats.failed == stats.attempted == 1


def test_normalized_time_scales_with_host_speed(monkeypatch):
    monkeypatch.setattr(reference, "NEAREST", 2)
    sampler = SpeedSampler()
    sampler.samples = [0.002, 0.001, 0.004]
    # samples 1 and 2 ran inside a request of 1.005 s: 1 s of its own
    own, norm = sampler.normalize(1, 3, 1.005)
    assert own == pytest.approx(1.0)
    assert norm == pytest.approx(1.0 * (1000 + 250) / 2)
    # too few samples inside: the latest ones stand in
    assert sampler.normalize(2, 2, 0.5) == pytest.approx((0.5, 0.5 * (500 + 1000) / 2))


def test_sampler_samples_during_a_request():
    with SpeedSampler(interval=0.01) as sampler:
        first = len(sampler.samples)
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        last = len(sampler.samples)
    assert last - first >= 5
    own, norm = sampler.normalize(first, last, time.perf_counter() - t0)
    assert 0 < own < 0.3 and norm > 0


def test_tracer_wraps_every_binding_and_restores_them():
    import odeobs
    import odeobs.embedding
    import odeobs.expr
    import odeobs.model

    original = odeobs.expr.diff
    tracer = Tracer(["expr.diff", "model.lie_derivative"])
    tracer.install()
    try:
        assert odeobs.embedding.diff is not original
        assert odeobs.model.diff is not original and odeobs.diff is not original
        assert odeobs.expr.diff is original  # recursion stays unwrapped
        sys_model = parse_model(families.chain(3))
        odeobs.model.lie_derivative(sys_model, sys_model.rhs[0])
    finally:
        tracer.uninstall()
    assert odeobs.embedding.diff is original and odeobs.model.diff is original
    snap = tracer.snapshot()
    assert snap["model.lie_derivative"][0] == 1
    assert snap["expr.diff"][0] == sys_model.n  # one span per state, none per recursion step
    lie_id = tracer.span_name.tolist().index(1)
    assert all(tracer.span_parent[i] == lie_id for i, n in enumerate(tracer.span_name) if n == 0)
    inclusive = tracer.span_end[lie_id] - tracer.span_start[lie_id]
    assert snap["model.lie_derivative"][1] + snap["expr.diff"][1] == pytest.approx(inclusive)


def test_node_counts_shared_and_distinct():
    table = parse_model(families.chain(2)).symbol_table()
    e = parse_expr("x1*x2 - (x1*x2)^2", table)
    # Add, Mul(x1, x2), Neg, PowInt, Mul(x1, x2): 9 tree nodes, 6 distinct ones
    assert layers.node_counts([[e]]) == (9, 6)
    assert layers.node_counts([[e, e]]) == (18, 6)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shipped", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
