"""Analysis orchestration and report serialization.

The JSON report is the single source of truth: the text summary is rendered
from the report dictionary, never computed separately, so the two can never
disagree.  Reports are deterministic byte-for-byte for a fixed seed: points
are recorded as exact fraction strings and keys are emitted sorted.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from . import __version__
from .conserved import (
    AlternativeSensorResult,
    ConservedSet,
    alternative_observables,
)
from .embedding import (
    AUTO_ORDER,
    DEFAULT_TRIALS,
    ObservabilityAssessment,
    RankVerdict,
    observability_verdict,
)
from .graph import (
    build_graph,
    graphical_observable,
    minimal_sensor_sets,
    scc_condensation,
)
from .model import EXACT, PROBABILISTIC, OdeSystem, verify_all_conserved

SCHEMA_VERSION = "report-v1"
KNOWN_SETS_CAP = 8


def _point_to_json(point: Optional[Mapping]) -> Optional[dict]:
    if point is None:
        return None
    return {s.name: str(v) for s, v in point.items()}


def _rank_to_json(verdict: RankVerdict, seed: int) -> dict:
    return {
        "generic_rank": verdict.generic_rank,
        "rows": verdict.rows,
        "cols": verdict.cols,
        "confidence": verdict.confidence,
        "trials": verdict.trials,
        "seed": seed,
        "sample_points": [_point_to_json(p) for p in verdict.sample_points],
        "point_ranks": list(verdict.point_ranks),
    }


def _assessment_to_json(assessment: ObservabilityAssessment, seed: int) -> dict:
    return {
        "k": assessment.k,
        "n": assessment.n,
        "observable_generic": assessment.observable,
        "rank": _rank_to_json(assessment.rank, seed),
        "rank_growing_past_default": assessment.rank_growing,
        "probes": [],
    }


def _alternative_to_json(result: AlternativeSensorResult, seed: int) -> dict:
    out: dict = {
        "positive": result.positive,
        "reason": result.reason,
        "partition": None,
        "conditions": None,
        "solution": None,
        "candidate": None,
        "transformed_model": None,
        "graphical_sufficient": None,
        "assessment": None,
    }
    if result.partition is not None:
        out["partition"] = {
            "sufficient": [s.name for s in result.partition.s_vars],
            "others": [s.name for s in result.partition.r_vars],
        }
    if result.conditions is not None:
        c = result.conditions
        out["conditions"] = {
            "ds_generic_rank": c.ds_rank.generic_rank,
            "ds_invertible": c.ds_invertible,
            "dr_generic_rank": c.dr_rank.generic_rank,
            "dr_required_rank": c.dr_required,
            "dr_full_rank": c.dr_full_rank,
            "holds": c.holds,
        }
    if result.solution is not None:
        out["solution"] = {s.name: str(e) for s, e in result.solution.items()}
    if result.candidate is not None:
        out["candidate"] = sorted(s.name for s in result.candidate)
    if result.transformed is not None:
        out["transformed_model"] = result.transformed.name
    if result.graphical is not None:
        out["graphical_sufficient"] = result.graphical.sufficient
    if result.assessment is not None:
        out["assessment"] = _assessment_to_json(result.assessment, seed)
    return out


def build_report(
    sys: OdeSystem,
    seed: int = 0,
    k: Union[int, str] = AUTO_ORDER,
    trials: int = DEFAULT_TRIALS,
) -> dict:
    """Run the full analysis pipeline and collect a serializable report.

    Covers conserved-quantity verification, the graphical test and the rank
    test for every declared observation set, and the alternative-sensor
    search for each verified conserved quantity (plus all of them jointly
    when there are several).  Every search of the report shares one memo
    of rank verdicts, so a conserved-set block that several known sensor
    sets rank (the independence gradient, a dG/ds or dG/dr) is sampled
    once; the memo is made here and lives for this report only.
    """
    verified_sys, verdicts = verify_all_conserved(sys, seed=seed)
    graph = build_graph(verified_sys, seed=seed)
    condensation = scc_condensation(graph)
    menu = minimal_sensor_sets(condensation)

    conserved_json = []
    for q, verdict in zip(sys.conserved, verdicts):
        conserved_json.append(
            {
                "level": q.level_name,
                "expression": str(q.expr),
                "status": verdict.status,
                "witness": _point_to_json(verdict.witness),
            }
        )

    observations_json = []
    for obs in verified_sys.observations:
        graphical = graphical_observable(condensation, obs.observed_states())
        assessment = observability_verdict(
            verified_sys, obs, k=k, seed=seed, trials=trials
        )
        observations_json.append(
            {
                "label": obs.label,
                "outputs": [str(o) for o in obs.outputs],
                "graphical": {
                    "sufficient": graphical.sufficient,
                    "missing_roots": [
                        [s.name for s in comp] for comp in graphical.missing_roots
                    ],
                },
                "assessment": _assessment_to_json(assessment, seed),
                "numeric": None,
            }
        )

    known_sets = [
        tuple(sorted(s.variables, key=lambda v: verified_sys.state_index(v)))
        for s in menu.sets[:KNOWN_SETS_CAP]
    ]
    usable = [q for q in verified_sys.conserved if q.verified in (EXACT, PROBABILISTIC)]
    groups: List[Tuple[str, ConservedSet]] = [
        (q.level_name, ConservedSet((q,))) for q in usable
    ]
    if len(usable) > 1:
        groups.append(("+".join(q.level_name for q in usable), ConservedSet(tuple(usable))))

    alternatives_json = []
    rank_memo: dict = {}
    for label, conserved_set in groups:
        for known in known_sets:
            search = alternative_observables(
                verified_sys, conserved_set, known, seed=seed, trials=trials, memo=rank_memo
            )
            alternatives_json.append(
                {
                    "conserved": label,
                    "known_sufficient": [s.name for s in known],
                    "truncated": search.truncated,
                    "results": [
                        _alternative_to_json(r, seed) for r in search.results
                    ],
                }
            )

    return {
        "schema": SCHEMA_VERSION,
        "tool": {"name": "odeobs", "version": __version__},
        "model": verified_sys.name,
        "seed": seed,
        "k": k if isinstance(k, int) else AUTO_ORDER,
        "trials": trials,
        "states": [s.name for s in verified_sys.states],
        "params": [p.name for p in verified_sys.params],
        "conserved": conserved_json,
        "graph": {
            "edges": [[a, b] for a, b in graph.edge_names()],
            "components": [[s.name for s in comp] for comp in condensation.components],
            "root_components": [
                [s.name for s in comp] for comp in condensation.root_components()
            ],
            "minimal_sensor_sets": [list(s.names()) for s in menu.sets],
            "truncated": menu.truncated,
        },
        "observations": observations_json,
        "alternatives": alternatives_json,
    }


def report_to_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True)`` and a newline, byte for byte.

    json encodes in C only without ``indent``, so this writes the indented
    layout itself: strings through json's own ASCII escaper, keys sorted,
    floats as ``float.__repr__`` or ``NaN``/``Infinity``/``-Infinity``, ints
    as ``int.__repr__``, tuples as lists.  Keys must be strings, as every
    report's are; another key, or a value json would not encode, raises
    ``TypeError``.
    """
    out: List[str] = []
    _write_json(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: List[str]) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` starts its lines."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif value == math.inf:
            out.append("Infinity")
        elif value == -math.inf:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        out.append("[")
        for i, item in enumerate(value):
            out.append(inner if i == 0 else "," + inner)
            _write_json(item, inner, out)
        out += (newline, "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        for i, key in enumerate(sorted(value)):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out += (inner if i == 0 else "," + inner, encode_basestring_ascii(key), ": ")
            _write_json(value[key], inner, out)
        out += (newline, "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _set_str(names: Sequence[str]) -> str:
    return "{" + ", ".join(names) + "}"


def render_text(report: dict) -> str:
    """Human-readable summary derived from the JSON report only."""
    lines: List[str] = []
    lines.append(f"model: {report['model']}")
    lines.append(
        f"states: {', '.join(report['states'])} | params: {', '.join(report['params'])}"
    )
    lines.append(f"seed: {report['seed']}  k: {report['k']}  trials: {report['trials']}")
    lines.append("")
    lines.append("conserved quantities:")
    if not report["conserved"]:
        lines.append("  (none declared)")
    for q in report["conserved"]:
        line = f"  {q['level']} = {q['expression']}: {q['status']}"
        if q["witness"]:
            parts = ", ".join(f"{k}={v}" for k, v in sorted(q["witness"].items()))
            line += f" (witness {parts})"
        lines.append(line)
    lines.append("")
    roots = [_set_str(c) for c in report["graph"]["root_components"]]
    lines.append(f"source components: {', '.join(roots) if roots else '(none)'}")
    menu = [_set_str(s) for s in report["graph"]["minimal_sensor_sets"]]
    lines.append(f"minimal sensor sets: {', '.join(menu) if menu else '(none)'}")
    lines.append("")
    lines.append("observation sets:")
    for obs in report["observations"]:
        g = "sufficient" if obs["graphical"]["sufficient"] else "insufficient"
        if not obs["graphical"]["sufficient"]:
            missing = ", ".join(_set_str(c) for c in obs["graphical"]["missing_roots"])
            g += f" (missing {missing})"
        a = obs["assessment"]
        r = a["rank"]
        verdict = "observable-generic" if a["observable_generic"] else "not observable"
        lines.append(
            f"  {obs['label']} = ({', '.join(obs['outputs'])}): graphical {g}; "
            f"rank {r['generic_rank']}/{a['n']} at k={a['k']} "
            f"({r['confidence']}) -> {verdict}"
        )
    lines.append("")
    lines.append("alternative sensors via conserved quantities:")
    if not report["alternatives"]:
        lines.append("  (no verified conserved quantities)")
    for group in report["alternatives"]:
        known = _set_str(group["known_sufficient"])
        lines.append(f"  using {group['conserved']} with known sufficient {known}:")
        for result in group["results"]:
            if result["positive"]:
                cand = _set_str(result["candidate"])
                rank = result["assessment"]["rank"]["generic_rank"]
                n = result["assessment"]["n"]
                lines.append(
                    f"    + observe {cand}: sufficient "
                    f"(rank {rank}/{n} on {result['transformed_model']})"
                )
            elif result["candidate"]:
                cand = _set_str(result["candidate"])
                rank = result["assessment"]["rank"]["generic_rank"]
                n = result["assessment"]["n"]
                lines.append(
                    f"    - observe {cand}: {result['reason']} (rank {rank}/{n})"
                )
            else:
                lines.append(f"    - {result['reason']}")
    return "\n".join(lines) + "\n"
