"""odeobs benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload cascade --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ``src/``).  The
run sends the workload's fixed request list again and again, each request
after the previous one completed, until ``--seconds`` have passed, checks
every output, prints each metric as ``name value unit`` and, as the last
line, one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes traced by ``tracer.Tracer`` and reports the
per-layer metrics; it also writes every span of the run to
``.perfbench-out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from reference import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"

SETUP_PROBES = 5  # set-up is repeated in this many fresh processes; the median is reported
REQUEST_LIMIT_S = 60.0  # a request running longer counts as failed
HARD_LIMIT_S = 150.0  # no request may run past this point of the process's life
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)

_START = time.perf_counter()


class RequestTimeout(BaseException):
    """Raised inside a request that ran past its time limit.

    A BaseException, so that no ``except Exception`` inside odeobs swallows it.
    """


@contextmanager
def time_limit(seconds: float):
    def on_alarm(signum, frame):
        raise RequestTimeout(f"request exceeded {seconds:.1f} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Stats:
    """Per-run tallies of requests, outcomes and verdict labels."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.exact = 0
        self.verdicts = 0
        self.request_s: List[float] = []
        self.request_norm: Dict[str, List[float]] = {}
        self.problems: List[str] = []


def run_pass(
    requests, stats: Stats, sampler: Optional[SpeedSampler] = None
) -> Optional[Tuple[float, float]]:
    """Send each request after the previous one completed.

    Returns the summed request time of the pass and, with a sampler, its
    summed normalized time; None when the process's hard limit cut it short.
    """
    total = normalized = 0.0
    for req in requests:
        budget = min(REQUEST_LIMIT_S, HARD_LIMIT_S - (time.perf_counter() - _START))
        if budget <= 0:
            return None
        stats.attempted += 1
        first = len(sampler.samples) if sampler else 0
        try:
            with time_limit(budget):
                t0 = time.perf_counter()
                result = req.call()
                elapsed = time.perf_counter() - t0
                last = len(sampler.samples) if sampler else 0
            outcome = req.check(result)
        except RequestTimeout as exc:
            stats.failed += 1
            stats.problems.append(f"{req.label}: {exc}")
            continue
        except Exception as exc:  # noqa: BLE001 - any failure of a request is data
            stats.failed += 1
            stats.problems.append(f"{req.label}: {type(exc).__name__}: {exc}")
            continue
        if sampler:
            elapsed, norm = sampler.normalize(first, last, elapsed)
            stats.request_norm.setdefault(req.kind, []).append(norm)
            normalized += norm
        total += elapsed
        stats.request_s.append(elapsed)
        stats.exact += outcome.exact
        stats.verdicts += outcome.verdicts
        if outcome.problems:
            stats.failed += 1
            stats.problems.append(f"{req.label}: {'; '.join(outcome.problems)}")
    return total, normalized


def warm_up(workload, stats: Stats) -> None:
    """Run the workload's warm-up requests; only their outcomes count."""
    warm = Stats()
    run_pass(workload.warmup, warm)
    stats.attempted += warm.attempted
    stats.failed += warm.failed
    stats.problems += warm.problems


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports odeobs and builds the inputs."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=ROOT, check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def tail(samples: List[float]):
    """Highest ladder percentile with at least ten samples beyond it, or None."""
    ordered = sorted(samples)
    for pct in TAIL_LADDER:
        if len(ordered) * (1 - pct / 100.0) >= 10:
            q = statistics.quantiles(ordered, n=1000, method="inclusive")
            return pct, q[int(round(pct * 10)) - 1]
    return None


def _median(values: List[float]) -> float:
    """Median, or 0 when a failed run measured nothing (the run is then not correct)."""
    return statistics.median(values) if values else 0.0


def gmean_of_medians(by_kind: Dict[str, List[float]]) -> float:
    """Geometric mean over request kinds of each kind's median.

    Every kind weighs the same, however long it runs, so a change to the
    per-request overhead of a short request shows.
    """
    if not by_kind:
        return 0.0
    return math.exp(statistics.fmean(math.log(statistics.median(v)) for v in by_kind.values()))


def end_to_end(name: str, workload, seed: int, seconds: float, stats: Stats) -> Dict[str, tuple]:
    # Set-up probes are spread over the run, so that their median sees the
    # same mix of fast and slow host phases as the passes do.
    setup_times = [setup_probe(name, seed)]
    warm_up(workload, stats)
    passes: List[Tuple[float, float]] = []
    t_end = time.perf_counter() + seconds
    next_probe = time.perf_counter() + seconds / SETUP_PROBES
    with SpeedSampler() as sampler:
        while time.perf_counter() < t_end:
            done = run_pass(workload.requests(len(passes)), stats, sampler)
            if done is None:
                break
            passes.append(done)
            if len(setup_times) < SETUP_PROBES and time.perf_counter() >= next_probe:
                setup_times.append(setup_probe(name, seed))
                t_end += setup_times[-1]
                next_probe = time.perf_counter() + seconds / SETUP_PROBES
    while len(setup_times) < SETUP_PROBES:
        setup_times.append(setup_probe(name, seed))
    setup_s = statistics.median(setup_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    found = tail(stats.request_s)
    print(
        f"{len(passes)} passes, {len(stats.request_s)} requests, "
        f"{len(sampler.samples)} speed samples (median {_median(sampler.samples):.6f} s)"
    )
    raw = f"raw: wall {_median([w for w, _ in passes]):.6f} s, "
    raw += f"request p50 {_median(stats.request_s):.6f} s"
    if found:
        raw += f", request tail p{found[0]:g} {found[1]:.6f} s"
    print(raw)
    print("median normalized request: " + ", ".join(
        f"{kind} {_median(values):.1f} ref" for kind, values in stats.request_norm.items()))
    return {
        "wall_norm": (_median([n for _, n in passes]), "ref"),
        "request_gmean_norm": (gmean_of_medians(stats.request_norm), "ref"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "exact_verdict_ratio": (stats.exact / stats.verdicts if stats.verdicts else 0.0, "ratio"),
    }


def per_layer(name: str, workload, seed: int, seconds: float, stats: Stats) -> Dict[str, tuple]:
    import layers
    from tracer import Tracer
    from workloads import TARGETS

    tracer = Tracer(TARGETS, keep=layers.KEEP)
    derived = layers.Derived()
    plain: List[float] = []
    traced: List[float] = []
    per_pass: List[Dict[str, tuple]] = []
    warm_up(workload, stats)
    t_end = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < t_end or not traced:
        requests = workload.requests(index // 2)
        if index % 2 == 0:
            done = run_pass(requests, stats)
            if done is None:
                break
            plain.append(done[0])
        else:
            before = tracer.snapshot()
            tracer.install()
            try:
                done = run_pass(requests, stats)
            finally:
                tracer.uninstall()
            if done is None:
                break
            traced.append(done[0])
            per_pass.append(layers.delta(before, tracer.snapshot()))
            derived.absorb(tracer)
        index += 1
    OUT_DIR.mkdir(exist_ok=True)
    spans = tracer.write_spans(OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
    print(f"{len(plain)} untraced and {len(traced)} traced passes, {spans} spans")
    return layers.metrics(TARGETS, per_pass, derived, tracer, plain, traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "odeobs" / "__init__.py").is_file():
        sys.stderr.write(f"odeobs sources not found under {src}; run from a checkout\n")
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
        if args.setup_probe:
            return 0
        stats = Stats()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args.workload, workload, args.seed, args.seconds, stats)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in stats.problems[:20]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": stats.failed == 0 and stats.attempted > 0,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
