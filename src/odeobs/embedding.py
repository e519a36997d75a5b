"""Differential embeddings and rank-based local observability.

An output stacked with its successive time derivatives gives an embedding of
the state space; the system is locally observable at a point exactly when the
Jacobian of that stack has rank n there.  Generic rank is estimated by exact
rational evaluation at random integer points followed by fraction-free
elimination: a full-rank sample is a certificate, because rank can only drop
on a measure-zero set.  Each matrix is compiled once to a straight-line
program (:func:`odeobs.expr.compile_exact`, the lowering that RK4 source is
printed from too) that evaluates every distinct subexpression once per point.
A matrix with ln/exp is ranked over floats instead, by the float run of the
same program, with a probabilistic verdict, at points from a narrower
window; a point where an entry leaves the float domain halves that window
and is drawn again.

Each derivative is taken once per verdict.  An embedding keeps one
:func:`odeobs.expr.diff` memo per state and the gradient of every component
it has differentiated: the gradient that forms the next component is also
that component's Jacobian row, so :func:`jacobian` differentiates only each
output's last component.  The order k+1 check extends the order k embedding
and its Jacobian by one order instead of rebuilding them.

Differentiation is pruned: one :class:`odeobs.expr.SupportTable` per
embedding records which states each subtree mentions, so a gradient entry
walks only the subtrees that mention its state, and a subtree over
parameters alone (or other states) is ``0`` at once.  The table is filled
once per node for all n states and shared with every extended embedding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from . import linalg
from .expr import (
    DivisionByZeroError,
    DomainError,
    ExactProgram,
    Expr,
    SupportTable,
    Symbol,
    compile_exact,
    diff,
)
from .model import ObservationSet, OdeSystem, along_field
from .poly import FLOAT_ZERO_RTOL

AUTO_ORDER = "auto"
DEFAULT_TRIALS = 8
POINT_BOUND = 1000
FLOAT_POINT_BOUND = 16  # exp of a coordinate stays within about 1e7

EXACT_CONFIDENCE = "exact"
PROBABILISTIC_CONFIDENCE = "probabilistic"


class AllPointsDegenerateError(Exception):
    """Every sampled point hit a pole of the matrix entries."""


@dataclass(frozen=True)
class EmbeddingMap:
    """Outputs and their iterated Lie derivatives, grouped per output.

    ``gradients`` holds the gradient over ``states`` of every component but
    each output's last, grouped the same way; ``memos`` holds one diff memo
    per state and ``support`` the states each subtree mentions, both shared
    with every embedding extended from this one.
    """

    components: Tuple[Expr, ...]
    order: int
    n_outputs: int
    states: Tuple[Symbol, ...] = field(repr=False, compare=False)
    gradients: Tuple[Tuple[Expr, ...], ...] = field(repr=False, compare=False)
    memos: Tuple[dict, ...] = field(repr=False, compare=False)
    support: SupportTable = field(repr=False, compare=False)

    def component(self, output_index: int, derivative: int) -> Expr:
        return self.components[output_index * (self.order + 1) + derivative]


@dataclass(frozen=True)
class EmbeddingJacobian:
    entries: Tuple[Tuple[Expr, ...], ...]  # rows x states
    states: Tuple[Symbol, ...]

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def rows(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class RankVerdict:
    generic_rank: int
    trials: int
    sample_points: Tuple[dict, ...]
    point_ranks: Tuple[int, ...]
    confidence: str  # exact | probabilistic
    rows: int
    cols: int


def build_embedding(
    sys: OdeSystem, obs: ObservationSet, k: Union[int, str] = AUTO_ORDER
) -> EmbeddingMap:
    """Stack each output with its first k Lie derivatives (k='auto' -> n-1)."""
    if k == AUTO_ORDER:
        k = sys.n - 1
    if not isinstance(k, int) or k < 0:
        raise ValueError(f"embedding order must be a non-negative integer, got {k!r}")
    embedding = EmbeddingMap(
        tuple(obs.outputs),
        order=0,
        n_outputs=len(obs.outputs),
        states=sys.states,
        gradients=(),
        memos=tuple({} for _ in sys.states),
        support=SupportTable(sys.states),
    )
    for _ in range(k):
        embedding = _extend(sys, embedding, _gradients(embedding))
    return embedding


def _gradients(embedding: EmbeddingMap) -> Tuple[Tuple[Expr, ...], ...]:
    """The gradient of every component: those kept, and each output's last."""
    k = embedding.order
    rows: List[Tuple[Expr, ...]] = []
    for o in range(embedding.n_outputs):
        rows.extend(embedding.gradients[o * k : (o + 1) * k])
        last = embedding.component(o, k)
        rows.append(
            tuple(
                diff(last, s, memo, embedding.support)
                for s, memo in zip(embedding.states, embedding.memos)
            )
        )
    return tuple(rows)


def _extend(
    sys: OdeSystem, embedding: EmbeddingMap, rows: Sequence[Tuple[Expr, ...]]
) -> EmbeddingMap:
    """The embedding one order higher, given the gradients of its components."""
    k = embedding.order
    components: List[Expr] = []
    for o in range(embedding.n_outputs):
        components.extend(embedding.components[o * (k + 1) : (o + 1) * (k + 1)])
        components.append(along_field(sys, rows[o * (k + 1) + k]))
    return EmbeddingMap(
        tuple(components),
        order=k + 1,
        n_outputs=embedding.n_outputs,
        states=embedding.states,
        gradients=tuple(rows),
        memos=embedding.memos,
        support=embedding.support,
    )


def jacobian(embedding: EmbeddingMap, sys: OdeSystem) -> EmbeddingJacobian:
    if sys.states != embedding.states:
        raise ValueError("the embedding was built over other states")
    return EmbeddingJacobian(_gradients(embedding), sys.states)


def _point_key(point: Mapping[Symbol, Fraction]) -> tuple:
    return tuple(sorted(((s.name, v) for s, v in point.items())))


def generic_rank_of(
    rows: Sequence[Sequence[Expr]],
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    n_cols: Optional[int] = None,
) -> RankVerdict:
    """Generic rank of a symbolic matrix by exact sampling.

    Points draw integer coordinates uniformly from [-1000, 1000] for every
    symbol appearing in the matrix; draws that hit a pole are retried.  An
    ln/exp matrix draws from [-16, 16], which keeps exp within the range of
    the rank tolerance; a draw where an entry is not a finite float halves
    that window, down to [-4, 4], and is retried.  The verdict is exact
    when all entries are rational and the sampled maximum reaches
    min(rows, cols): a nonzero minor at a rational point certifies it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_rows = len(rows)
    if n_cols is None:
        n_cols = len(rows[0]) if n_rows else 0
    if n_rows == 0 or n_cols == 0:
        return RankVerdict(0, trials, (), (), EXACT_CONFIDENCE, n_rows, n_cols)
    program = compile_exact(rows)
    symbols = tuple(sorted(program.symbols, key=lambda s: s.sort_key))
    rational = program.rational
    bound = POINT_BOUND if rational else FLOAT_POINT_BOUND
    rng = random.Random(seed)
    points: List[dict] = []
    ranks: List[int] = []
    attempts = 0
    max_attempts = 200 * trials
    while len(ranks) < trials and attempts < max_attempts:
        attempts += 1
        point = {s: Fraction(rng.randint(-bound, bound)) for s in symbols}
        try:
            r = linalg.rank(program.run(point)) if rational else _float_rank(program, point)
        except (DivisionByZeroError, ZeroDivisionError):
            continue  # a pole
        if r is None:  # an entry is not a finite float: as in poly's zero test
            bound = max(4, bound // 2)
            continue
        points.append(point)
        ranks.append(r)
    if not ranks:
        raise AllPointsDegenerateError(
            f"no valid sample in {max_attempts} draws; all points degenerate"
        )
    order = sorted(range(len(points)), key=lambda i: _point_key(points[i]))
    points = [points[i] for i in order]
    ranks = [ranks[i] for i in order]
    generic = max(ranks)
    confidence = (
        EXACT_CONFIDENCE
        if rational and generic == min(n_rows, n_cols)
        else PROBABILISTIC_CONFIDENCE
    )
    return RankVerdict(
        generic_rank=generic,
        trials=len(ranks),
        sample_points=tuple(points),
        point_ranks=tuple(ranks),
        confidence=confidence,
        rows=n_rows,
        cols=n_cols,
    )


def _float_rank(program: ExactProgram, point: Mapping[Symbol, Fraction]) -> Optional[int]:
    """Numerical rank of the matrix ``program`` computes at ``point``, or None
    where an entry is not a finite float.

    Singular values below FLOAT_ZERO_RTOL of the largest count as zero, as in
    :func:`odeobs.poly.is_zero`: a zero entry reads as its terms' roundoff.
    """
    import numpy as np

    try:
        matrix = np.array(program.run_float(point), dtype=float)
    except (DomainError, OverflowError, ValueError):  # ValueError: fsum of inf - inf
        return None
    if not np.isfinite(matrix).all():
        return None
    singular = np.linalg.svd(matrix, compute_uv=False)
    return int((singular > FLOAT_ZERO_RTOL * singular[0]).sum())


def generic_rank(
    j: EmbeddingJacobian, seed: int = 0, trials: int = DEFAULT_TRIALS
) -> RankVerdict:
    return generic_rank_of(j.entries, seed=seed, trials=trials, n_cols=j.n)


def rank_at_point(j: EmbeddingJacobian, point: Mapping[Symbol, Fraction]) -> int:
    """Exact rank of the Jacobian at one fully bound rational point."""
    return linalg.rank(compile_exact(j.entries).run(point))


@dataclass(frozen=True)
class ObservabilityAssessment:
    label: str
    k: int
    n: int
    rank: RankVerdict
    observable: bool
    probe_ranks: Tuple[Tuple[dict, Optional[int]], ...]
    rank_growing: Optional[bool]  # rank still increasing past the default order


def observability_verdict(
    sys: OdeSystem,
    obs: ObservationSet,
    k: Union[int, str] = AUTO_ORDER,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    probe_points: Sequence[Mapping[Symbol, Fraction]] = (),
) -> ObservabilityAssessment:
    """Bundle embedding construction, Jacobian, and the generic rank test.

    ``probe_points`` are user-supplied full assignments at which the local
    rank is also reported (degenerate loci are found by inspection, not
    solved for).  When the generic rank falls short of n, the embedding is
    extended one order higher to flag whether the rank was still growing.
    """
    embedding = build_embedding(sys, obs, k)
    jac = jacobian(embedding, sys)
    verdict = generic_rank(jac, seed=seed, trials=trials)
    probes = []
    program = compile_exact(jac.entries) if probe_points else None
    for point in probe_points:
        try:
            probes.append((dict(point), linalg.rank(program.run(point))))
        except (DivisionByZeroError, ZeroDivisionError):
            probes.append((dict(point), None))
    rank_growing: Optional[bool] = None
    if verdict.generic_rank < sys.n:
        higher = _extend(sys, embedding, jac.entries)
        higher_verdict = generic_rank(jacobian(higher, sys), seed=seed, trials=trials)
        rank_growing = higher_verdict.generic_rank > verdict.generic_rank
    return ObservabilityAssessment(
        label=obs.label,
        k=embedding.order,
        n=sys.n,
        rank=verdict,
        observable=verdict.generic_rank == sys.n,
        probe_ranks=tuple(probes),
        rank_growing=rank_growing,
    )
