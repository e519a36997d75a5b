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
:func:`odeobs.expr.diff` memo per state and the gradient of each of its
components.  Row k of an output's block of the Jacobian is grad L^k y, and
the next component is L^(k+1) y = grad L^k y . f: each gradient is both a
Jacobian row and the seed of the next order, so one order is added by one
:func:`odeobs.model.along_field` and one gradient per output, and
:func:`jacobian` returns the stored rows.  When the rank falls short of n,
whether it was still growing is a fact from order n-1 on: the rank of an
output stacked with its derivatives stops growing at the first order that
adds nothing, and that is order n-1 at the latest, so nothing of order n is
built.  Below order n-1 the order k+1 check extends the order k embedding,
and so its Jacobian, by one order instead of rebuilding them.

Differentiation is pruned: every expression node knows the symbols of its
subtree, so a gradient entry walks only the subtrees that mention its
state, and a subtree over parameters alone (or other states) is ``0`` at
once.  A node's constructor writes its symbols, so no walk gathers them,
for the rank sampler's symbol draws either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from . import linalg
from .expr import (
    DivisionByZeroError,
    DomainError,
    ExactProgram,
    Expr,
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

    ``gradients`` holds the gradient over ``states`` of each component, in
    the same order: these are the Jacobian's rows.  ``memos`` holds one diff
    memo per state, shared with every embedding extended from this one.
    """

    components: Tuple[Expr, ...]
    order: int
    n_outputs: int
    states: Tuple[Symbol, ...] = field(repr=False, compare=False)
    gradients: Tuple[Tuple[Expr, ...], ...] = field(repr=False, compare=False)
    memos: Tuple[dict, ...] = field(repr=False, compare=False)

    def component(self, output_index: int, derivative: int) -> Expr:
        return self.components[output_index * (self.order + 1) + derivative]


@dataclass(frozen=True)
class EmbeddingJacobian:
    entries: Tuple[Tuple[Expr, ...], ...]  # rows x states
    states: Tuple[Symbol, ...]


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
    memos = tuple({} for _ in sys.states)
    gradients = tuple(_gradient(y, sys.states, memos) for y in obs.outputs)
    embedding = EmbeddingMap(tuple(obs.outputs), 0, len(obs.outputs), sys.states, gradients, memos)
    for _ in range(k):
        embedding = _extend(sys, embedding)
    return embedding


def _gradient(e: Expr, states: Sequence[Symbol], memos: Sequence[dict]) -> Tuple[Expr, ...]:
    return tuple(diff(e, s, memo) for s, memo in zip(states, memos))


def _extend(sys: OdeSystem, embedding: EmbeddingMap) -> EmbeddingMap:
    """The embedding one order higher: each output's L^(k+1) y = grad L^k y . f,
    and its gradient."""
    k = embedding.order
    components: List[Expr] = []
    gradients: List[Tuple[Expr, ...]] = []
    for o in range(embedding.n_outputs):
        group = slice(o * (k + 1), (o + 1) * (k + 1))
        components.extend(embedding.components[group])
        gradients.extend(embedding.gradients[group])
        components.append(along_field(sys, gradients[-1]))
        gradients.append(_gradient(components[-1], embedding.states, embedding.memos))
    return replace(
        embedding, components=tuple(components), order=k + 1, gradients=tuple(gradients)
    )


def jacobian(embedding: EmbeddingMap, sys: OdeSystem) -> EmbeddingJacobian:
    if sys.states != embedding.states:
        raise ValueError("the embedding was built over other states")
    return EmbeddingJacobian(embedding.gradients, sys.states)


def generic_rank_of(
    rows: Sequence[Sequence[Expr]],
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> RankVerdict:
    """Generic rank of a symbolic matrix by exact sampling.

    Points draw integer coordinates uniformly from [-1000, 1000] for every
    symbol appearing in the matrix, as Python ints: an exact value is an int
    when it is integral and a Fraction only otherwise.  Draws that hit a
    pole are retried, and the points are returned sorted by their values in
    symbol-name order.  An ln/exp matrix draws from [-16, 16], which keeps
    exp within the range of the rank tolerance; a draw where an entry is not
    a finite float halves that window, down to [-4, 4], and is retried.  The
    verdict is exact when all entries are rational and the sampled maximum
    reaches min(rows, cols): a nonzero minor at a rational point certifies
    it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n_rows = len(rows)
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
        point = {s: rng.randint(-bound, bound) for s in symbols}
        try:
            r = linalg.rank(program.run(point)) if rational else _float_rank(program, point)
        except DivisionByZeroError:
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
    by_name = sorted(symbols, key=lambda s: s.name)
    order = sorted(range(len(points)), key=lambda i: [points[i][s] for s in by_name])
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


def _float_rank(program: ExactProgram, point: Mapping[Symbol, int]) -> Optional[int]:
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
    return generic_rank_of(j.entries, seed=seed, trials=trials)


def rank_at_point(j: EmbeddingJacobian, point: Mapping[Symbol, Fraction]) -> int:
    """Exact rank of the Jacobian at one fully bound rational point, where
    degenerate loci are checked.  A pole raises ``DivisionByZeroError``."""
    return linalg.rank(compile_exact(j.entries).run(point))


@dataclass(frozen=True)
class ObservabilityAssessment:
    k: int
    n: int
    rank: RankVerdict
    observable: bool
    rank_growing: Optional[bool]  # rank still increasing past order k; never from k >= n-1


def observability_verdict(
    sys: OdeSystem,
    obs: ObservationSet,
    k: Union[int, str] = AUTO_ORDER,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> ObservabilityAssessment:
    """Bundle embedding construction, Jacobian, and the generic rank test.

    When the generic rank falls short of n, ``rank_growing`` says whether
    the rank was still growing: ``False`` at order n-1 or above, where the
    rank has stopped for good, and otherwise the sampled rank of the
    embedding extended one order higher.
    """
    embedding = build_embedding(sys, obs, k)
    verdict = generic_rank(jacobian(embedding, sys), seed=seed, trials=trials)
    rank_growing: Optional[bool] = None
    if verdict.generic_rank < sys.n:
        if embedding.order >= sys.n - 1:
            # The rank r_k is dim V_k, V_k = span{dL^i h : i <= k} (Hermann &
            # Krener 1977).  If r_k = r_(k-1), each dL^k h is in V_(k-1); d
            # commutes with L_f, so each dL^(k+1) h is in V_k and the rank is
            # stuck for good.  r_0 < r_1 < ... cannot rise n times below n, so
            # it has stopped by order n-1 (state-free outputs: r_0 = 0 stays).
            rank_growing = False
        else:
            higher = _extend(sys, embedding)
            higher_verdict = generic_rank(jacobian(higher, sys), seed=seed, trials=trials)
            rank_growing = higher_verdict.generic_rank > verdict.generic_rank
    return ObservabilityAssessment(
        k=embedding.order,
        n=sys.n,
        rank=verdict,
        observable=verdict.generic_rank == sys.n,
        rank_growing=rank_growing,
    )
