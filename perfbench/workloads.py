"""The four benchmark workloads: inputs made from the seed, requests, checks.

Every request goes through a public entry point of odeobs (``cli.main`` or a
function the package exports), looked up on its module at call time so that
the tracer's wrappers are seen.  Each request comes with a check of its
output; a request that raises, exits nonzero or returns a wrong verdict is a
failure.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import odeobs.cli
import odeobs.model
import odeobs.numeric
import odeobs.report

import families

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "shipped_digests.json"

# Layer functions the traced run wraps, as ``module.function``.
TARGETS = (
    "model.parse_model",
    "model.verify_all_conserved",
    "model.lie_derivative",
    "model.reduce_by_conserved",
    "expr.diff",
    "expr.eval_exact",
    "expr.eval_float",
    "expr.substitute",
    "poly.normalize_rational",
    "poly.is_zero",
    "linalg.rank",
    "linalg.invert",
    "graph.build_graph",
    "graph.scc_condensation",
    "graph.minimal_sensor_sets",
    "embedding.build_embedding",
    "embedding.jacobian",
    "embedding.generic_rank_of",
    "conserved.alternative_observables",
    "conserved.eliminate_states",
    "conserved.solve_affine",
    "numeric.integrate_rk4",
    "numeric.compile_functions",
    "numeric.conserved_drift",
    "numeric.unobservability_witness",
    "report.build_report",
    "report.report_to_json",
    "report.render_text",
    "cli.main",
)


@dataclass
class Outcome:
    """What a check found: problems (empty when correct) and verdict labels."""

    problems: List[str] = field(default_factory=list)
    exact: int = 0
    verdicts: int = 0


@dataclass
class Request:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    kind: str = ""  # requests of one kind are summarized together; defaults to the label

    def __post_init__(self):
        self.kind = self.kind or self.label


def run_cli(argv: Sequence[str]) -> Tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = odeobs.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def report_outcome(report: dict, problems: List[str]) -> Outcome:
    """Count conserved and rank verdicts of a report, and how many are exact."""
    labels = [q["status"] for q in report["conserved"]]
    labels += [o["assessment"]["rank"]["confidence"] for o in report["observations"]]
    labels += [
        r["assessment"]["rank"]["confidence"]
        for g in report["alternatives"]
        for r in g["results"]
        if r["assessment"]
    ]
    return Outcome(problems, sum(label == "exact" for label in labels), len(labels))


def _parse(text: str):
    return odeobs.model.parse_model(text)


# ---------------------------------------------------------------------------
# shipped: the four bundled models through the CLI


def _ranks(report: dict) -> Dict[str, int]:
    return {o["label"]: o["assessment"]["rank"]["generic_rank"] for o in report["observations"]}


def _positives(report: dict) -> Dict[str, List[List[str]]]:
    out: Dict[str, List[List[str]]] = {}
    for g in report["alternatives"]:
        out.setdefault(g["conserved"], []).extend(
            r["candidate"] for r in g["results"] if r["positive"]
        )
    return {k: sorted(v) for k, v in out.items()}


# Verdicts stated in the README, the demos and the acceptance suite.
SHIPPED_VERDICTS = {
    "sir": {
        "menu": [["R"]],
        "ranks": {"R": 3, "I": 2},
        "positives": {"N": [["I"], ["S"]]},
    },
    "mm": {
        "menu": [["p"]],
        "ranks": {"p": 4, "ec": 3},
        "positives": {"E0": [], "S0": [["c"], ["s"]], "E0+S0": []},
    },
    "toy": {
        "menu": [["S"]],
        "ranks": {"R": 1, "S": 2},
        "positives": {"Q0": [["R"]]},
    },
    "lv": {
        "menu": [["m"], ["r"]],
        "ranks": {"r": 2, "m": 2},
        "positives": {"Q0": []},
    },
}


def check_shipped(model: str, report: dict) -> List[str]:
    expected = SHIPPED_VERDICTS[model]
    problems = []
    if any(q["status"] != "exact" for q in report["conserved"]):
        problems.append(f"conserved statuses {[q['status'] for q in report['conserved']]}")
    if sorted(report["graph"]["minimal_sensor_sets"]) != expected["menu"]:
        problems.append(f"menu {report['graph']['minimal_sensor_sets']}")
    if _ranks(report) != expected["ranks"]:
        problems.append(f"ranks {_ranks(report)}")
    if _positives(report) != expected["positives"]:
        problems.append(f"positives {_positives(report)}")
    return problems


class Shipped:
    """``odeobs analyze`` on sir, mm, toy and lv, cycling over sampling seeds."""

    warmup: Sequence[Request] = ()

    MODELS = ("sir", "mm", "toy", "lv")
    SAMPLING_SEEDS = tuple(range(8))  # the seeds whose report digests are recorded

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.paths = {m: root / "models" / f"{m}.model" for m in self.MODELS}
        for path in self.paths.values():
            _parse(path.read_text(encoding="utf-8"))
        self.digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
        self.offset = seed % len(self.SAMPLING_SEEDS)
        self.json_path = workdir / "report.json"

    def requests(self, pass_index: int) -> List[Request]:
        s = self.SAMPLING_SEEDS[(self.offset + pass_index) % len(self.SAMPLING_SEEDS)]
        return [
            Request(f"analyze {m} --seed {s}", partial(self._analyze, m, s),
                    partial(self._check, m, s), kind=f"analyze {m}")
            for m in self.MODELS
        ]

    def _analyze(self, model: str, s: int):
        path = str(self.paths[model])
        return run_cli(["analyze", path, "--seed", str(s), "--json", str(self.json_path)])

    def _check(self, model: str, s: int, result) -> Outcome:
        code, out, err = result
        if code != 0 or not self.json_path.exists():
            return Outcome([f"exit {code}: {err.strip()}"])
        data = self.json_path.read_bytes()
        self.json_path.unlink()
        problems = []
        digest = hashlib.sha256(data).hexdigest()
        if digest != self.digests[model][str(s)]:
            problems.append(f"report digest {digest[:12]} differs from the recorded one")
        if not out.startswith("model: "):
            problems.append("text summary missing")
        report = json.loads(data)
        return report_outcome(report, problems + check_shipped(model, report))


# ---------------------------------------------------------------------------
# cascade and enzyme: the full report on generated families


Model = Tuple[str, str, Callable[[dict], List[str]]]  # name, model text, verdict check


class _Reports:
    """``build_report`` plus ``report_to_json`` on generated models.

    ``warmup`` models are reported once before the measured passes; their
    outputs are checked, their times are not measured.
    """

    def __init__(self, seed: int, models: Sequence[Model], warmup: Sequence[Model] = ()):
        self.seed = seed
        self.models = [(name, _parse(text), check) for name, text, check in models]
        self.warmup = self._requests([(name, _parse(text), check) for name, text, check in warmup])

    def requests(self, pass_index: int) -> List[Request]:
        return self._requests(self.models)

    def _requests(self, models) -> List[Request]:
        return [
            Request(f"report {name}", partial(self._report, model), partial(self._check, check))
            for name, model, check in models
        ]

    def _report(self, model):
        report = odeobs.report.build_report(model, seed=self.seed)
        return report, odeobs.report.report_to_json(report)

    @staticmethod
    def _check(check, result) -> Outcome:
        report, text = result
        problems = [] if json.loads(text) == report else ["JSON text differs from the report"]
        return report_outcome(report, problems + check(report))


class Cascade(_Reports):
    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(
            seed,
            [
                ("chain-6", families.chain(6, seed), partial(families.check_chain, n=6)),
                ("chain-7", families.chain(7, seed), partial(families.check_chain, n=7)),
                ("twin-3", families.twin(3, seed), partial(families.check_twin, n=3)),
            ],
        )


class Enzyme(_Reports):
    def __init__(self, root: Path, seed: int, workdir: Path):
        super().__init__(
            seed,
            [("mm-tail-2", families.mm_tail(2, seed), partial(families.check_mm_tail, t=2))],
            warmup=[("mm-tail-1", families.mm_tail(1, seed), partial(families.check_mm_tail, t=1))],
        )


# ---------------------------------------------------------------------------
# structural: graph, verification and RK4, no rank test

RING_N = 32
RING_DT, RING_T = 0.01, 200.0  # 20,000 RK4 steps
WITNESS_DT, WITNESS_T, WITNESS_DELTA = 0.01, 50.0, 0.1
_DRIFT_RE = re.compile(r"^drift T: (\S+)$", re.M)


class Structural:
    warmup: Sequence[Request] = ()

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.seed = seed
        text = families.ring(RING_N)
        _parse(text)
        self.ring_path = workdir / f"ring{RING_N}.model"
        self.ring_path.write_text(text, encoding="utf-8")
        self.ring_x0 = ",".join(repr(v) for v in families.ring_x0(RING_N))
        self.chain = _parse(families.chain(32, seed, observe=16))
        self.chain_hidden = {f"x{i}" for i in range(17, 33)}

    def requests(self, pass_index: int) -> List[Request]:
        ring, s = str(self.ring_path), str(self.seed)
        return [
            Request(
                "graph --reduce T:x0",
                partial(run_cli, ["graph", ring, "--reduce", "T:x0", "--seed", s]),
                self._check_graph,
            ),
            Request("verify", partial(run_cli, ["verify", ring, "--seed", s]), self._check_verify),
            Request(
                "simulate",
                partial(run_cli, ["simulate", ring, "--x0", self.ring_x0, "--params", "k=1",
                                  "--dt", str(RING_DT), "--T", str(RING_T), "--seed", s]),
                self._check_simulate,
            ),
            Request("witness", self._witness, self._check_witness),
        ]

    @staticmethod
    def _check_graph(result) -> Outcome:
        code, out, err = result
        if code != 0:
            return Outcome([f"exit {code}: {err.strip()}"])
        return Outcome(families.check_ring_dot(out))

    @staticmethod
    def _check_verify(result) -> Outcome:
        code, out, err = result
        lines = out.splitlines()
        if code != 0 or len(lines) != 1 or not lines[0].startswith("T = "):
            return Outcome([f"exit {code}: {out.strip()} {err.strip()}"])
        exact = lines[0].endswith(": exact")
        return Outcome([] if exact else [f"verdict {lines[0]}"], int(exact), 1)

    @staticmethod
    def _check_simulate(result) -> Outcome:
        code, out, err = result
        m = _DRIFT_RE.search(out)
        steps = int(round(RING_T / RING_DT))
        if code != 0 or m is None or f"{steps + 1} points" not in out or "divergence" in out:
            return Outcome([f"exit {code}: {out.strip()} {err.strip()}"])
        drift = float(m.group(1))
        ok = math.isfinite(drift) and drift < families.RING_DRIFT_LIMIT
        return Outcome([] if ok else [f"drift {drift:.3e}"])

    def _witness(self):
        params = {p.name: 1.0 for p in self.chain.params}
        return odeobs.numeric.unobservability_witness(
            self.chain, self.chain.observations[0], [1.0] * self.chain.n, params,
            WITNESS_DT, WITNESS_T, WITNESS_DELTA, seed=self.seed,
        )

    def _check_witness(self, pair) -> Outcome:
        if pair is None or pair.direction not in self.chain_hidden:
            return Outcome([f"witness {pair}"])
        if pair.output_distance >= odeobs.numeric.ZERO_DISTANCE:
            return Outcome([f"distance {pair.output_distance}"])
        return Outcome()


WORKLOADS = {
    "shipped": Shipped,
    "cascade": Cascade,
    "enzyme": Enzyme,
    "structural": Structural,
}
