"""Per-layer metrics of a traced run.

Calls and self time come from the tracer, per traced pass (the median over
passes is reported).  The derived metrics come from values the wrapped
functions returned, examined after each traced pass, outside any span.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence, Tuple

from odeobs.expr import Const, PowInt, Sym, children

KEEP = (
    "embedding.jacobian",
    "embedding.generic_rank_of",
    "conserved.alternative_observables",
    "numeric.integrate_rk4",
)
REJECTED_POINT = ("DivisionByZeroError", "ZeroDivisionError")


def node_counts(entries) -> Tuple[int, int]:
    """Tree nodes (shared subtrees counted at every use) and distinct subexpressions."""
    size: Dict[int, int] = {}
    canon: Dict[int, int] = {}
    table: Dict[tuple, int] = {}

    def visit(e) -> None:
        kids = children(e)
        for kid in kids:
            if id(kid) not in canon:
                visit(kid)
        leaf = e.value if isinstance(e, Const) else e.symbol if isinstance(e, Sym) else (
            e.exponent if isinstance(e, PowInt) else None
        )
        key = (type(e), leaf, tuple(canon[id(k)] for k in kids))
        canon[id(e)] = table.setdefault(key, len(table))
        size[id(e)] = 1 + sum(size[id(k)] for k in kids)

    tree = 0
    for row in entries:
        for entry in row:
            if id(entry) not in canon:
                visit(entry)
            tree += size[id(entry)]
    return tree, len(table)


def delta(before: Dict[str, Tuple[int, float]], after: Dict[str, Tuple[int, float]]):
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}


class Derived:
    """Accumulates the derived metrics over the traced passes of a run."""

    def __init__(self):
        self.tree: List[int] = []
        self.distinct: List[int] = []
        self.candidates: List[int] = []
        self.accepted = 0
        self.tried_candidates = 0
        self.positives = 0
        self.rk4_steps = 0
        self.rk4_s = 0.0

    def absorb(self, tracer) -> None:
        kept = tracer.kept
        tree = distinct = 0
        for jac, _ in kept["embedding.jacobian"]:
            t, d = node_counts(jac.entries)
            tree += t
            distinct += d
        self.tree.append(tree)
        self.distinct.append(distinct)
        self.accepted += sum(v.trials for v, _ in kept["embedding.generic_rank_of"])
        tried = [
            r for search, _ in kept["conserved.alternative_observables"]
            for r in search.results if r.candidate is not None
        ]
        self.candidates.append(len(tried))
        self.tried_candidates += len(tried)
        self.positives += sum(r.positive for r in tried)
        for traj, inclusive in kept["numeric.integrate_rk4"]:
            self.rk4_steps += len(traj.times) - 1
            self.rk4_s += inclusive
        for values in kept.values():
            values.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def metrics(
    targets: Sequence[str],
    per_pass: List[Dict[str, Tuple[int, float]]],
    derived: Derived,
    tracer,
    plain: List[float],
    traced: List[float],
) -> Dict[str, tuple]:
    out: Dict[str, tuple] = {}
    for name in targets:
        out[f"{name}.calls"] = (_median(p[name][0] for p in per_pass), "count")
        out[f"{name}.self_s"] = (_median(p[name][1] for p in per_pass), "s")
    tried = derived.accepted + tracer.raised_under("embedding.generic_rank_of", REJECTED_POINT)
    attributed = sum(self_s for p in per_pass for _, self_s in p.values())
    out.update({
        "embedding.jacobian.tree_nodes": (_median(derived.tree), "count"),
        "embedding.jacobian.distinct_nodes": (_median(derived.distinct), "count"),
        "embedding.sample_accept_ratio": (_ratio(derived.accepted, tried), "ratio"),
        "conserved.candidates": (_median(derived.candidates), "count"),
        "conserved.positive_ratio": (_ratio(derived.positives, derived.tried_candidates), "ratio"),
        "numeric.rk4_steps_per_s": (_ratio(derived.rk4_steps, derived.rk4_s), "1/s"),
        "trace.overhead_s": (_median(traced) - _median(plain), "s"),
        "trace.attributed_ratio": (_ratio(attributed, sum(traced)), "ratio"),
    })
    return out
