"""A two-state linear system analyzed three ways.

dR/dt = a R, dS/dt = -a R: everything R produces drains from S, so R + S is
conserved.  Observing S reveals R (its derivative is -a R), but observing R
says nothing about where S started.  The script checks this with the exact
linear-algebra rank, the embedding rank, the graph, and then flips the
verdict for R using the conserved sum.
"""

from fractions import Fraction
from pathlib import Path

from odeobs import (
    ConservedSet,
    alternative_observables,
    build_embedding,
    build_graph,
    generic_rank,
    jacobian,
    linalg,
    load_model,
    minimal_sensor_sets,
    scc_condensation,
    verify_all_conserved,
)
from odeobs.numeric import distinguishability, integrate_rk4

MODELS = Path(__file__).resolve().parent.parent / "models"

toy = load_model(MODELS / "toy.model")
print("model:", toy.name)
for s, f in zip(toy.states, toy.rhs):
    print(f"  d{s.name}/dt = {f}")

# -- classical observability matrix for the linear system -------------------
a = Fraction(3, 2)
A = [[a, Fraction(0)], [-a, Fraction(0)]]
for label, C in (("R", [[Fraction(1), Fraction(0)]]), ("S", [[Fraction(0), Fraction(1)]])):
    ca = [sum(c * A[i][j] for i, c in enumerate(C[0])) for j in range(len(A))]
    stacked = [C[0], ca]
    print(f"observing {label}: rank of (C; CA) = {linalg.rank(stacked)}")

# -- the embedding rank reproduces both verdicts ----------------------------
for label in ("R", "S"):
    obs = next(o for o in toy.observations if o.label == label)
    emb = build_embedding(toy, obs, 1)
    verdict = generic_rank(jacobian(emb, toy), seed=0)
    print(f"embedding rank observing {label}: {verdict.generic_rank}")

# -- the graph picture -------------------------------------------------------
menu = minimal_sensor_sets(scc_condensation(build_graph(toy)))
print("graph sensor menu:", [s.names() for s in menu.sets])

# -- observing R really does hide the drain level ----------------------------
pair = distinguishability(
    toy,
    next(o for o in toy.observations if o.label == "R"),
    (2.0, 5.0),
    (2.0, 9.0),
    {"a": 1.5},
    dt=0.01,
    T=5.0,
)
print(
    "two runs that differ only in S(0): observed-R trajectories differ by",
    pair.output_distance,
)

# -- the conserved sum rescues R ---------------------------------------------
verified, verdicts = verify_all_conserved(toy)
print("conserved Q0 = R + S:", verdicts[0].status)
search = alternative_observables(
    verified, ConservedSet(verified.conserved), [toy.state_named("S")], seed=0
)
for result in search.positives():
    names = ",".join(s.name for s in result.candidate)
    print(
        f"with Q0 in hand, observing {{{names}}} suffices "
        f"(rank {result.assessment.rank.generic_rank}/{result.assessment.n}); "
        "transformed system:"
    )
    for s, f in zip(result.transformed.states, result.transformed.rhs):
        print(f"    d{s.name}/dt = {f}")

# -- numeric sanity: the invariant is flat along trajectories ----------------
traj = integrate_rk4(toy, (2.0, 5.0), {"a": 1.5}, 1e-3, 4.0)
from odeobs import conserved_drift

print("RK4 drift of R + S over t in [0, 4]:", conserved_drift(traj, toy.conserved[0]))
