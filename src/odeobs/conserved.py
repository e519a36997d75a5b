"""Alternative sensor discovery through conserved quantities.

Given a set of conserved quantities G and a sensor set s known to make the
system observable, split the states into x = (r, s).  When dG/ds is
(generically) invertible and dG/dr has full (generic) rank, the level
equations implicitly express s in terms of r, so suitable outputs built from
r-side variables inherit observability.  The constructive case is affine G:
the level equations solve exactly, each r-side variable appearing in G can
be eliminated in its turn, and the eliminated variable becomes a source node
of the transformed graph.  Every candidate produced this way is re-verified
by both the graphical test and the embedding rank test; the implication is
never trusted on its own.

:func:`alternative_observables` runs this procedure as one loop over the
admissible partitions.  Each pass checks one partition's conditions, solves
its level equations, and eliminates and re-verifies its candidates, so a
partition's results are complete before the next partition starts.

Failures (rank conditions not met, non-affine quantities, size mismatches)
are returned as data: a conserved set that does not help is a finding, not
an error.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from . import linalg
from .expr import (
    ZERO,
    Const,
    Expr,
    Sym,
    Symbol,
    UnknownSymbolError,
    add,
    diff,
    mul,
    neg,
    substitute,
)
from .embedding import (
    DEFAULT_TRIALS,
    ObservabilityAssessment,
    RankVerdict,
    generic_rank_of,
    observability_verdict,
)
from .graph import GraphicalVerdict, build_graph, graphical_observable, scc_condensation
from .model import (
    ConservedSet,
    ModelError,
    NotAffineError,
    ObservationSet,
    OdeSystem,
    UNCHECKED,
    ZeroCoefficientError,
)

PARTITION_CAP = 1000

# level equations with no unique affine solution for the block
_UNSOLVABLE = (NotAffineError, ZeroCoefficientError, linalg.SingularMatrixError)


class NotSquareError(Exception):
    """dG/ds can only be invertible when quantities match sufficient vars."""

    def __init__(self, n_quantities: int, n_sufficient: int):
        super().__init__(
            f"{n_quantities} conserved quantities against "
            f"{n_sufficient} sufficient variables"
        )
        self.n_quantities = n_quantities
        self.n_sufficient = n_sufficient


class _PartitionFields(NamedTuple):
    r_vars: Tuple[Symbol, ...]
    s_vars: Tuple[Symbol, ...]


class Partition(_PartitionFields):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if set(self.r_vars) & set(self.s_vars):
            raise ValueError("partition blocks overlap")
        if not self.s_vars:
            raise ValueError("sufficient block must be nonempty")
        return self


class PartitionJacobians(NamedTuple):
    partition: Partition
    dg_dr: Tuple[Tuple[Expr, ...], ...]  # quantities x r_vars
    dg_ds: Tuple[Tuple[Expr, ...], ...]  # quantities x s_vars


class ExchangeConditions(NamedTuple):
    """Verdicts for the two Jacobian-block conditions of the sensor exchange."""

    ds_rank: RankVerdict
    dr_rank: RankVerdict
    ds_invertible: bool
    dr_full_rank: bool
    dr_required: int

    @property
    def holds(self) -> bool:
        return self.ds_invertible and self.dr_full_rank


class AlternativeSensorResult(NamedTuple):
    """One outcome of the alternative-sensor search.

    Positive results carry the candidate sensor variables, the transformed
    system in which they became sources, and both re-verification verdicts.
    Negative results keep the partition and whatever was established before
    the search stopped, with ``reason`` explaining why.
    """

    reason: str
    positive: bool
    partition: Optional[Partition] = None
    conditions: Optional[ExchangeConditions] = None
    solution: Optional[Dict[Symbol, Expr]] = None  # s-vars in terms of r-vars
    candidate: Optional[Tuple[Symbol, ...]] = None
    transformed: Optional[OdeSystem] = None
    graphical: Optional[GraphicalVerdict] = None
    assessment: Optional[ObservabilityAssessment] = None


class AlternativeSearch(NamedTuple):
    results: Tuple[AlternativeSensorResult, ...]
    truncated: bool

    def positives(self) -> Tuple[AlternativeSensorResult, ...]:
        return tuple(r for r in self.results if r.positive)

    def positive_sets(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(
            tuple(sorted(s.name for s in r.candidate)) for r in self.positives()
        )


def partition_jacobians(g: ConservedSet, p: Partition) -> PartitionJacobians:
    """Block split of the conserved-set Jacobian along the partition."""
    dg_dr = tuple(tuple(diff(q.expr, v) for v in p.r_vars) for q in g.quantities)
    dg_ds = tuple(tuple(diff(q.expr, v) for v in p.s_vars) for q in g.quantities)
    return PartitionJacobians(p, dg_dr, dg_ds)


# Rank verdicts of one report's blocks, keyed by (entries, seed, trials).
# Entries are interned nodes, so the key compares them by identity.
RankMemo = Dict[tuple, RankVerdict]


def _memo_rank(
    rows: Tuple[Tuple[Expr, ...], ...], seed: int, trials: int, memo: Optional[RankMemo]
) -> RankVerdict:
    """``generic_rank_of(rows)``, sampled once per key of ``memo``."""
    if memo is None:
        return generic_rank_of(rows, seed=seed, trials=trials)
    key = (rows, seed, trials)
    verdict = memo.get(key)
    if verdict is None:
        verdict = memo[key] = generic_rank_of(rows, seed=seed, trials=trials)
    return verdict


def exchange_conditions(
    pj: PartitionJacobians,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    memo: Optional[RankMemo] = None,
) -> ExchangeConditions:
    """Generic invertibility of dG/ds and full generic rank of dG/dr.

    A block already in ``memo`` is not sampled again.
    """
    n_q = len(pj.dg_ds)
    n_s = len(pj.partition.s_vars)
    if n_q != n_s:
        raise NotSquareError(n_q, n_s)
    ds_rank = _memo_rank(pj.dg_ds, seed, trials, memo)
    dr_rank = _memo_rank(pj.dg_dr, seed, trials, memo)
    required = min(n_q, len(pj.partition.r_vars))
    return ExchangeConditions(
        ds_rank=ds_rank,
        dr_rank=dr_rank,
        ds_invertible=ds_rank.generic_rank == n_s,
        dr_full_rank=dr_rank.generic_rank == required,
        dr_required=required,
    )


def conserved_set_independent(
    sys: OdeSystem,
    g: ConservedSet,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    memo: Optional[RankMemo] = None,
) -> bool:
    """Generic linear independence of the quantity gradients.

    A gradient already in ``memo`` is not sampled again.
    """
    rows = tuple(tuple(diff(q.expr, s) for s in sys.states) for q in g.quantities)
    verdict = _memo_rank(rows, seed, trials, memo)
    return verdict.generic_rank == len(g.quantities)


def solve_affine(
    g: ConservedSet, levels: Sequence[Symbol], p: Partition
) -> Dict[Symbol, Expr]:
    """Solve the level equations G(r, s) = levels for the s block exactly.

    Requires every quantity to be affine in the s variables with constant
    coefficients, which covers the conservation laws that arise from
    stoichiometry and population balance; the result maps each s variable to
    an expression in the r variables and the level symbols.  Raises
    :class:`NotAffineError` for a non-constant coefficient,
    :class:`ZeroCoefficientError` for an s variable no quantity mentions and
    :class:`SingularMatrixError` when the coefficients are otherwise singular.
    """
    if len(g.quantities) != len(p.s_vars) or len(levels) != len(p.s_vars):
        raise NotSquareError(len(g.quantities), len(p.s_vars))
    matrix: List[List[Fraction]] = []
    for q in g.quantities:
        row = []
        for v in p.s_vars:
            coeff = diff(q.expr, v)
            if not isinstance(coeff, Const):
                raise NotAffineError(v)
            row.append(coeff.value)
        matrix.append(row)
    for j, v in enumerate(p.s_vars):
        if all(row[j] == 0 for row in matrix):
            raise ZeroCoefficientError(v)
    zeros = {v: ZERO for v in p.s_vars}
    residuals = [
        add(Sym(level), neg(substitute(q.expr, zeros)))
        for q, level in zip(g.quantities, levels)
    ]
    inverse = linalg.invert(matrix)  # SingularMatrixError when not invertible
    solution: Dict[Symbol, Expr] = {}
    for j, v in enumerate(p.s_vars):
        solution[v] = add(
            *[mul(Const(inverse[j][i]), residuals[i]) for i in range(len(residuals))]
        )
    return solution


def eliminate_states(
    sys: OdeSystem, g: ConservedSet, eliminate: Sequence[Symbol]
) -> OdeSystem:
    """Transform the system so the eliminated states become source nodes.

    The level equations G = levels are solved jointly for the eliminated
    states (sequential substitution would reintroduce variables eliminated
    earlier).  Every other equation gets the solution substituted in, and
    each eliminated state's equation becomes the derivative of its solution
    along the new field, so the level identities hold exactly.  The state
    list keeps its dimension and the level symbols join the parameters.  One
    quantity solved for one state names the result
    ``<model>.<LEVEL>_for_<var>``; several name it ``<model>.joint_for_...``.
    """
    if len(g.quantities) != len(eliminate):
        raise NotSquareError(len(g.quantities), len(eliminate))
    for v in eliminate:
        if v not in sys.states:
            raise UnknownSymbolError(v.name)
    for q in g.quantities:
        if q.verified == UNCHECKED:
            raise ModelError("conserved quantities must be verified before reduction")
    levels = g.levels()
    for level in levels:
        if level in sys.params or level in sys.states:
            raise ModelError(f"level symbol {level.name!r} collides with the model")
    others = tuple(s for s in sys.states if s not in eliminate)
    solution = solve_affine(g, levels, Partition(r_vars=others, s_vars=tuple(eliminate)))
    new_rhs: List[Expr] = list(sys.rhs)
    for i, s in enumerate(sys.states):
        if s not in eliminate:
            new_rhs[i] = substitute(sys.rhs[i], solution)
    for v in eliminate:
        terms = [mul(diff(solution[v], s), new_rhs[sys.state_index(s)]) for s in others]
        new_rhs[sys.state_index(v)] = add(*terms)
    if len(eliminate) == 1:
        suffix = f"{g.quantities[0].level_name}_for_{eliminate[0].name}"
    else:
        suffix = "joint_for_" + "_".join(v.name for v in eliminate)
    return sys._replace(
        name=f"{sys.name}.{suffix}",
        params=sys.params + levels,
        rhs=tuple(new_rhs),
        conserved=tuple(q.with_verified(UNCHECKED) for q in sys.conserved),
    )


def _stopped(reason: str) -> AlternativeSearch:
    """A search that ended before its first partition, for ``reason``."""
    return AlternativeSearch((AlternativeSensorResult(reason, False),), False)


def alternative_observables(
    sys: OdeSystem,
    g: ConservedSet,
    known_sufficient: Iterable[Symbol],
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    memo: Optional[RankMemo] = None,
) -> AlternativeSearch:
    """Search for sensor sets made sufficient by the conserved quantities.

    ``known_sufficient`` must already be a sufficient sensor set (graphical
    or rank verified) of states of ``sys``; any other symbol raises
    :class:`UnknownSymbolError` before anything is sampled.  The search is
    one loop over admissible partitions: each size-l subset of the known
    variables that occur in the conserved set, in state order, is the s
    block, up to ``PARTITION_CAP`` of them.  A partition checks the Jacobian
    conditions, solves the level equations, and then eliminates each size-l
    subset of the other variables occurring in the conserved set,
    re-verifying it as a sensor by both the graphical and the rank test as
    it goes; a subset the level equations cannot be solved for is skipped.
    Each partition adds at least one result, and the search is truncated
    when a partition was left over at the cap.

    The gradient of the independence test and each partition's dG/ds and
    dG/dr are ranked through ``memo``, a dict of rank verdicts keyed by
    (block entries, seed, trials).  Searches of one report share one memo
    (:func:`odeobs.report.build_report` makes it and drops it with the
    report), so a block that two known sets both rank is sampled once.
    Without one, the call gets a fresh memo of its own.
    """
    if memo is None:
        memo = {}
    for q in g.quantities:
        if q.verified == UNCHECKED:
            raise ModelError(
                f"conserved quantity {q.level_name} must be verified first"
            )
    known = tuple(known_sufficient)
    for v in known:
        if v not in sys.states:
            raise UnknownSymbolError(v.name)
    n_q = len(g.quantities)
    if n_q == 0:
        return _stopped("no conserved quantities supplied")
    g_vars = g.state_vars(sys)
    pool = [v for v in g_vars if v in known]
    if len(pool) < n_q:
        return _stopped(
            f"only {len(pool)} of the known sufficient variables occur in "
            f"the conserved set; {n_q} needed for an admissible partition"
        )
    if not conserved_set_independent(sys, g, seed=seed, trials=trials, memo=memo):
        return _stopped("conserved-quantity gradients are generically dependent")

    results: List[AlternativeSensorResult] = []
    partitions = itertools.combinations(pool, n_q)
    for s_vars in itertools.islice(partitions, PARTITION_CAP):
        part = Partition(tuple(v for v in sys.states if v not in s_vars), s_vars)
        conditions = exchange_conditions(
            partition_jacobians(g, part), seed=seed, trials=trials, memo=memo
        )
        result = functools.partial(
            AlternativeSensorResult, partition=part, conditions=conditions
        )
        if not conditions.holds:
            failed = []
            if not conditions.ds_invertible:
                failed.append("dG/ds not generically invertible")
            if not conditions.dr_full_rank:
                failed.append(
                    f"dG/dr generic rank {conditions.dr_rank.generic_rank} "
                    f"< {conditions.dr_required}"
                )
            results.append(result("; ".join(failed), False))
            continue
        try:
            result = functools.partial(result, solution=solve_affine(g, g.levels(), part))
        except _UNSOLVABLE:
            results.append(
                result(
                    "conditions hold, but the conserved set is not affine in the "
                    "sufficient variables; no constructive substitution",
                    False,
                )
            )
            continue
        n_before = len(results)
        for w in itertools.combinations([v for v in g_vars if v not in s_vars], n_q):
            try:
                transformed = eliminate_states(sys, g, w)
            except _UNSOLVABLE:
                continue
            graphical = graphical_observable(
                scc_condensation(build_graph(transformed, seed=seed)), w
            )
            assessment = observability_verdict(
                transformed,
                ObservationSet(tuple(Sym(v) for v in w), "+".join(v.name for v in w)),
                seed=seed,
                trials=trials,
            )
            positive = assessment.observable
            results.append(
                result(
                    "replacement sensors verified by rank"
                    if positive
                    else "rank re-verification failed on the transformed system",
                    positive,
                    candidate=w,
                    transformed=transformed,
                    graphical=graphical,
                    assessment=assessment,
                )
            )
        if len(results) == n_before:
            results.append(
                result("conditions hold but no solvable replacement variables exist", False)
            )
    return AlternativeSearch(tuple(results), next(partitions, None) is not None)
