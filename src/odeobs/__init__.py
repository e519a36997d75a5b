"""odeobs: which state variables must be measured to reconstruct an ODE system.

Three views of observability are combined: the inference-graph test (observe
one variable in every source component), the differential-embedding rank
test (exact generic rank of the stacked Lie-derivative Jacobian), and a
conserved-quantity substitution that turns declared invariants into
alternative sensor sets the first two views would miss on the original
system.  Numeric integration provides empirical cross-checks and
unobservability witnesses.
"""

__version__ = "0.1.0"

from .expr import (
    Expr,
    Symbol,
    compile_exact,
    diff,
    eval_exact,
    eval_float,
    free_symbols,
    parse_expr,
    substitute,
)
from .poly import RationalForm, ZeroTestResult, is_zero, normalize_rational
from .model import (
    ConservedQuantity,
    ConservedSet,
    ObservationSet,
    OdeSystem,
    lie_derivative,
    load_model,
    parse_model,
    reduce_by_conserved,
    verify_all_conserved,
    verify_conserved,
)
from .graph import (
    Condensation,
    InferenceGraph,
    SensorSet,
    build_graph,
    export_dot,
    graphical_observable,
    minimal_sensor_sets,
    scc_condensation,
)
from .embedding import (
    EmbeddingMap,
    RankVerdict,
    build_embedding,
    generic_rank,
    jacobian,
    observability_verdict,
    rank_at_point,
)
from .conserved import (
    AlternativeSearch,
    Partition,
    alternative_observables,
    exchange_conditions,
    partition_jacobians,
    solve_affine,
)
from .numeric import (
    Trajectory,
    WitnessPair,
    conserved_drift,
    distinguishability,
    integrate_rk4,
    trajectory_to_csv,
    unobservability_witness,
)
from .report import build_report, render_text, report_to_json
