"""Report bytes of generated models, pinned across changes to the rank test.

The generator below builds the cascade chain-n, the twin chains twin-n and
the mass-action enzyme with a product tail mm-tail-t, each in its natural
declaration order.  Their reports exercise the rank paths of the default
order n-1: full and short embeddings, ``rank_growing`` decided without an
order-n build, and the conserved-quantity search with single and joint
eliminations.  The order k+1 growth check runs only for ``--k`` below n-1;
``tests/test_embedding.py`` covers it.  The digests were recorded with the
embedding rebuilt from scratch for every order and evaluated over Fraction.

The dimerization 2A <-> B carries numeric constants through the whole report
path: 2 in its rates and in its conserved quantity, 1/2 in a level-equation
solution.  It is observable from either state, so it is pinned apart from
the families, whose every report has a verdict short of full rank.

The closed three-species cycle A -> B -> C -> A has the menu {A}, {B}, {C}:
every known set ranks the same blocks of T = A + B + C, which a report's
searches share through one rank memo, and tries candidates that another
known set tries too.
"""

import hashlib

import pytest

from odeobs.model import parse_model
from odeobs.report import build_report, report_to_json


def _model(name, params, states, rhs, conserved, observe):
    lines = [f"model: {name}", "params: " + ", ".join(params), "states: " + ", ".join(states)]
    lines += [f"d{s}/dt = {rhs[s]}" for s in states]
    lines += [f"conserved {level}: {expr}" for level, expr in conserved]
    lines += [f"observe {label}: {ids}" for label, ids in observe]
    return "\n".join(lines) + "\n"


def _chain_rhs(prefix, rate, n):
    xs = [f"{prefix}{i}" for i in range(1, n + 1)]
    ks = [f"{rate}{i}" for i in range(1, n)]
    rhs = {}
    for i, x in enumerate(xs):
        inflow = f"{ks[i - 1]}*{xs[i - 1]}" if i > 0 else ""
        outflow = f"{ks[i]}*{x}" if i < n - 1 else ""
        rhs[x] = f"{inflow} - {outflow}" if inflow and outflow else inflow or f"-{outflow}"
    return ks, xs, rhs


def chain(n):
    ks, xs, rhs = _chain_rhs("x", "k", n)
    return _model(f"chain{n}", ks, xs, rhs, [("T", " + ".join(xs))], [("end", xs[-1])])


def twin(n):
    ka, a, rhs_a = _chain_rhs("a", "ka", n)
    kb, b, rhs_b = _chain_rhs("b", "kb", n)
    return _model(
        f"twin{n}",
        ka + kb,
        a + b,
        {**rhs_a, **rhs_b},
        [("Ta", " + ".join(a)), ("Tb", " + ".join(b))],
        [("ends", f"{a[-1]}, {b[-1]}")],
    )


def mm_tail(t):
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
    return _model(
        f"mm_tail{t}",
        ["k1", "km1", "k2"] + qs,
        ["e", "s", "c"] + ps,
        rhs,
        [("E0", "e + c"), ("S0", " + ".join(["s", "c"] + ps))],
        [("end", ps[-1]), ("ec", "e, c")],
    )


DIMER = _model(
    "dimer",
    ["k1", "k2"],
    ["A", "B"],
    {"A": "2*k2*B - 2*k1*A^2", "B": "k1*A^2 - k2*B"},
    [("T", "A + 2*B")],
    [("A", "A"), ("B", "B")],
)

GENERATED = {"chain6": chain(6), "twin3": twin(3), "mm_tail2": mm_tail(2), "dimer": DIMER}

DIGESTS = {
    ("chain6", 0): "8cdda12a8ad554af6cbb15fb2ccf4302e9e1218df90bfbaa41f5ff6f9cc987da",
    ("chain6", 1): "7cb74de3bc6a9c1399f07c5de5a475b4032a8b8cd9746cccfb97a1a765ab96bf",
    ("twin3", 0): "9f10390c331b4e2a5486f65c3c7b7c419f8cde21c958f70742e9fbed91aa729b",
    ("twin3", 1): "a3413e67c1e89c1342e5871202f91f8be56c39b71ce7120efa7f47a2df4be74b",
    ("mm_tail2", 0): "9574949792926fa3bd199af7c1be8522d0cf6434ade9a607cd30483c97688f05",
    ("mm_tail2", 1): "821f669b5fbf9929e1da2d4cac3f697c58c9c8167bac850b489ec4b31123b1df",
}


@pytest.mark.parametrize("name,seed", sorted(DIGESTS))
def test_report_bytes_unchanged(name, seed):
    report = report_to_json(build_report(parse_model(GENERATED[name]), seed=seed))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == DIGESTS[name, seed]


# recorded before each component's gradient was stored with the embedding
DIMER_DIGESTS = {
    0: "b78e0e22176a322db3b8744ac5ee1438de9bf87dc8529cebefe5f8b43ccca5a5",
    1: "b9fa9081548b835836764288bae3c74781b241fe7aa35e843dcb8a146000c25b",
}


@pytest.mark.parametrize("seed", sorted(DIMER_DIGESTS))
def test_dimer_report_bytes_unchanged(seed):
    report = report_to_json(build_report(parse_model(DIMER), seed=seed))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == DIMER_DIGESTS[seed]


CYCLE = _model(
    "cycle3",
    ["k1", "k2", "k3"],
    ["A", "B", "C"],
    {"A": "k3*C - k1*A", "B": "k1*A - k2*B", "C": "k2*B - k3*C"},
    [("T", "A + B + C")],
    [("A", "A")],
)

# recorded before a report's searches shared their rank verdicts
CYCLE_DIGESTS = {
    0: "42349f24f135ab5aff8e12cd20724cc44a7e2a3134d50031d74ee42acf681810",
    1: "93e988cd41321521aad3e99cb613a15037e610329a8482c0d6ad0592f3ced694",
}


@pytest.mark.parametrize("seed", sorted(CYCLE_DIGESTS))
def test_cycle_report_bytes_unchanged(seed):
    report = report_to_json(build_report(parse_model(CYCLE), seed=seed))
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == CYCLE_DIGESTS[seed]
