"""Generated model families with closed-form expected verdicts.

Each generator returns model-file text.  The ``seed`` only permutes the
order in which states are declared (and their equations listed); it changes
neither the model's size nor any verdict, so the expected outcomes below hold
for every seed.  Expected verdicts are derived by hand:

* chain-n, a linear cascade x1 -> x2 -> ... -> xn with total T.  Observing xn
  has rank n.  Eliminating xj through T and observing it reveals x1..xj plus
  the lumped total downstream, so its rank is j+1, and only x(n-1) reaches n.
* twin-n, two independent chains a and b with totals Ta and Tb, observed at
  both ends.  The chains do not interact, so ranks add: the single-quantity
  candidates a_j, b_j have rank j+1 and the joint candidate (a_i, b_j) has
  rank (i+1)+(j+1), which is 2n only when i = j = n-1.
* mm-tail-t, E+S <-> C -> E+P1 -> P2 -> ... -> Pt with E0 = e+c and
  S0 = s+c+p1+...+pt, observed at pt.  Only S0 contains the sensor pt, so the
  E0 group and the joint group admit no partition; for t >= 2 the single
  S0 positive is p(t-1).
* ring-n, dx_i/dt = k*x(i-1)*x_i - k*x_i*x(i+1) with T = sum x_i.  Reducing by T
  for x0 leaves x0 as the only source component, so the menu is [{x0}].
  RK4 preserves linear invariants, so the drift of T stays at rounding level.
  The ring keeps its natural declaration order: the cost of its inference
  graph after the reduction depends on that order (up to 1.6x between
  orders of ring-32), far more than a run-to-run figure may vary.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

RING_DRIFT_LIMIT = 1e-9


def _permuted(names: Sequence[str], seed: Optional[int], family: str) -> List[str]:
    order = list(names)
    if seed is not None:
        random.Random(f"{family}:{seed}").shuffle(order)
    return order


def _model_text(
    name: str,
    params: Sequence[str],
    states: Sequence[str],
    rhs: Dict[str, str],
    conserved: Sequence[Tuple[str, str]],
    observe: Sequence[Tuple[str, str]],
    seed: Optional[int],
) -> str:
    order = _permuted(states, seed, name)
    lines = [f"model: {name}", "params: " + ", ".join(params), "states: " + ", ".join(order)]
    lines += [f"d{s}/dt = {rhs[s]}" for s in order]
    lines += [f"conserved {level}: {expr}" for level, expr in conserved]
    lines += [f"observe {label}: {ids}" for label, ids in observe]
    return "\n".join(lines) + "\n"


def _chain_rhs(prefix: str, rate: str, n: int) -> Tuple[List[str], List[str], Dict[str, str]]:
    """Rate names, state names and right-hand sides of prefix1 -> ... -> prefix<n>."""
    xs = [f"{prefix}{i}" for i in range(1, n + 1)]
    ks = [f"{rate}{i}" for i in range(1, n)]
    rhs = {}
    for i, x in enumerate(xs):
        terms = []
        if i > 0:
            terms.append(f"{ks[i - 1]}*{xs[i - 1]}")
        if i < n - 1:
            terms.append(f"- {ks[i]}*{x}" if terms else f"-{ks[i]}*{x}")
        rhs[x] = " ".join(terms)
    return ks, xs, rhs


def chain(n: int, seed: int = 0, observe: int = 0) -> str:
    """Linear cascade x1 -> ... -> xn conserving T, observed at x<observe> (default xn)."""
    ks, xs, rhs = _chain_rhs("x", "k", n)
    target = xs[(observe or n) - 1]
    return _model_text(
        f"chain{n}", ks, xs, rhs, [("T", " + ".join(xs))], [("end", target)], seed
    )


def twin(n: int, seed: int = 0) -> str:
    """Two independent n-compartment chains a and b with totals Ta and Tb."""
    ka, a, rhs_a = _chain_rhs("a", "ka", n)
    kb, b, rhs_b = _chain_rhs("b", "kb", n)
    return _model_text(
        f"twin{n}",
        ka + kb,
        a + b,
        {**rhs_a, **rhs_b},
        [("Ta", " + ".join(a)), ("Tb", " + ".join(b))],
        [("ends", f"{a[-1]}, {b[-1]}")],
        seed,
    )


def mm_tail(t: int, seed: int = 0) -> str:
    """Mass-action Michaelis-Menten with a product tail p1 -> ... -> pt."""
    ps = [f"p{i}" for i in range(1, t + 1)]
    qs = [f"q{i}" for i in range(1, t)]
    rhs = {
        "e": "(km1 + k2)*c - k1*e*s",
        "s": "km1*c - k1*e*s",
        "c": "k1*e*s - (km1 + k2)*c",
    }
    for i, p in enumerate(ps):
        inflow = "k2*c" if i == 0 else f"{qs[i - 1]}*{ps[i - 1]}"
        rhs[p] = inflow + (f" - {qs[i]}*{p}" if i < t - 1 else "")
    return _model_text(
        f"mm_tail{t}",
        ["k1", "km1", "k2"] + qs,
        ["e", "s", "c"] + ps,
        rhs,
        [("E0", "e + c"), ("S0", " + ".join(["s", "c"] + ps))],
        [("end", ps[-1]), ("ec", "e, c")],
        seed,
    )


def ring(n: int) -> str:
    """Volterra lattice on a ring of n sites conserving T = sum of x_i."""
    xs = [f"x{i}" for i in range(n)]
    rhs = {
        x: f"k*{xs[i - 1]}*{x} - k*{x}*{xs[(i + 1) % n]}" for i, x in enumerate(xs)
    }
    return _model_text(
        f"ring{n}", ["k"], xs, rhs, [("T", " + ".join(xs))], [("site", xs[0])], None
    )


def ring_x0(n: int) -> List[float]:
    """Positive, uneven initial state for the ring, in declaration order."""
    return [1.0 + (i % 5) / 10.0 for i in range(n)]


# ---------------------------------------------------------------------------
# expected verdicts, checked against report dictionaries


def _positive_sets(report: dict, group: str) -> List[Tuple[str, ...]]:
    return sorted(
        tuple(r["candidate"])
        for g in report["alternatives"]
        if g["conserved"] == group
        for r in g["results"]
        if r["positive"]
    )


def _candidate_ranks(report: dict, group: str) -> Dict[Tuple[str, ...], int]:
    return {
        tuple(r["candidate"]): r["assessment"]["rank"]["generic_rank"]
        for g in report["alternatives"]
        if g["conserved"] == group
        for r in g["results"]
        if r["candidate"]
    }


def _common(report: dict, levels: Sequence[str], menu: List[List[str]]) -> List[str]:
    problems = []
    statuses = {q["level"]: q["status"] for q in report["conserved"]}
    if statuses != {level: "exact" for level in levels}:
        problems.append(f"conserved statuses {statuses}")
    if report["graph"]["minimal_sensor_sets"] != menu:
        problems.append(f"menu {report['graph']['minimal_sensor_sets']} != {menu}")
    return problems


def _observation_rank(report: dict, n: int) -> List[str]:
    a = report["observations"][0]["assessment"]
    if a["rank"]["generic_rank"] != n or not a["observable_generic"]:
        return [f"observation rank {a['rank']['generic_rank']} != {n}"]
    return []


def check_chain(report: dict, n: int) -> List[str]:
    """Problems found in a chain-n report (empty when every verdict holds)."""
    problems = _common(report, ["T"], [[f"x{n}"]]) + _observation_rank(report, n)
    expected = {(f"x{j}",): j + 1 for j in range(1, n)}
    if _candidate_ranks(report, "T") != expected:
        problems.append(f"candidate ranks {_candidate_ranks(report, 'T')}")
    if _positive_sets(report, "T") != [(f"x{n - 1}",)]:
        problems.append(f"positives {_positive_sets(report, 'T')}")
    return problems


def check_twin(report: dict, n: int) -> List[str]:
    problems = _common(report, ["Ta", "Tb"], [[f"a{n}", f"b{n}"]])
    problems += _observation_rank(report, 2 * n)
    for side in "ab":
        group = f"T{side}"
        expected = {(f"{side}{j}",): j + 1 for j in range(1, n)}
        if _candidate_ranks(report, group) != expected:
            problems.append(f"{group} candidate ranks {_candidate_ranks(report, group)}")
        if _positive_sets(report, group):
            problems.append(f"{group} positives {_positive_sets(report, group)}")
    joint = {
        (f"a{i}", f"b{j}"): i + j + 2 for i in range(1, n) for j in range(1, n)
    }
    if _candidate_ranks(report, "Ta+Tb") != joint:
        problems.append(f"joint candidate ranks {_candidate_ranks(report, 'Ta+Tb')}")
    if _positive_sets(report, "Ta+Tb") != [(f"a{n - 1}", f"b{n - 1}")]:
        problems.append(f"joint positives {_positive_sets(report, 'Ta+Tb')}")
    return problems


def check_mm_tail(report: dict, t: int) -> List[str]:
    problems = _common(report, ["E0", "S0"], [[f"p{t}"]])
    for group in ("E0", "E0+S0"):
        if _candidate_ranks(report, group):
            problems.append(f"{group} has candidates {_candidate_ranks(report, group)}")
    expected = {(v,) for v in ["s", "c"] + [f"p{i}" for i in range(1, t)]}
    if set(_candidate_ranks(report, "S0")) != expected:
        problems.append(f"S0 candidates {sorted(_candidate_ranks(report, 'S0'))}")
    if t >= 2 and _positive_sets(report, "S0") != [(f"p{t - 1}",)]:
        problems.append(f"S0 positives {_positive_sets(report, 'S0')}")
    return problems


def check_ring_dot(dot: str) -> List[str]:
    """The DOT of ring-n reduced by T for x0 marks x0, and only x0, as a source."""
    roots = sorted(
        line.split()[0] for line in dot.splitlines() if "root=true" in line
    )
    return [] if roots == ["x0"] else [f"ring sources {roots} != ['x0']"]
