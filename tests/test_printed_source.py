"""The float source that ``numeric`` executes, pinned by digest.

The trajectory pins of ``test_rk4_pins`` show that the printed code computes
the same bits; these show that it is the same text.  For each model both
printed functions are captured as they reach ``exec``: the RK4 loop of the
right-hand sides that ``compile_functions`` prints, and the scalar function
of the right-hand sides, the conserved quantities and the observed outputs,
which drift and outputs run on the state columns or row by row.  The models
are the four shipped ones, a generated linear chain in shuffled declaration
order, and a model whose right-hand sides repeat structurally equal subtrees.
"""

import builtins
import hashlib

import pytest

from odeobs import numeric
from odeobs.expr import FloatPrinter, Symbol, parse_expr
from odeobs.model import ObservationSet

from conftest import A, B, X, Y
from test_rk4_pins import CASES, chain

# case -> (sha256 of the RK4 loop source, sha256 of the scalar function source)
DIGESTS = {
    'chain32_perm1': ('59e1a0b1f6a638aebed6e9bb5864b7eb8cedf5f523657464bc31d8866925e59b', 'aeea9847fdfd7c5fe41c5809e8fa088aee81a0a56cf1fac13cd79af94a509092'),
    'lv': ('5ba8f511fd40877ef2fc76abb8e23fd270464b37eef5d26b7511e34709870fc6', '51ad0bdcd2fb102dbc2a01bd484209396aefaa8b3aa27e88b49d1c7dcbcb4354'),
    'mm': ('8c527845eac82dec7f6f350218d66573726f04497ad954f021ad4e4d3a3ab473', 'ebb47902eca8fd639777084f15d7d9fd58760a90487524f893f47184dfc2eaa6'),
    'shared': ('2d23497112caff8e36a65a58df6d3a2e5b54080127a9fb9efb33a44c9952f9db', 'f5bcc70105780cf46f22fc8c6dce7a04e4b29586f9cbd9fd838cf7381e069fdf'),
    'sir': ('af9f7f38483f8420e624207e00c369435934c71f81d58543dd3b1bd421bd4442', '55269798134d8103a482ad25ff9d1d296ea8fbf93b216184d19f3befc8a067b2'),
    'toy': ('092d03a4c79b8326ae9d7c0def5d77c99565aa096e0354da4541cda17df4a56e', '21db173555d9ab51580ded756071cf590c9b1ac0812d68c5a491c40dd6a28038'),
}


def _recording(monkeypatch):
    """The list that every source ``numeric`` runs through ``exec`` is appended to."""
    sources = []

    def recording_exec(source, namespace):
        sources.append(source)
        builtins.exec(source, namespace)

    monkeypatch.setattr(numeric, "exec", recording_exec, raising=False)
    return sources


def _sources(monkeypatch, name):
    sources = _recording(monkeypatch)
    sys, _, params, dt, _ = CASES[name]()
    params = {Symbol(k, "parameter"): float(v) for k, v in params.items()}
    exprs = list(sys.rhs) + [q.expr for q in sys.conserved]
    exprs += [out for obs in sys.observations for out in obs.outputs]
    numeric.compile_functions(sys.states, sys.rhs, params, dt)
    numeric._scalar_function(FloatPrinter(exprs, params), sys.states)
    return sources


@pytest.mark.parametrize("name", ["sir", "mm", "toy", "lv", "chain32_perm1", "shared"])
def test_printed_source_digests(monkeypatch, name):
    step, rows = _sources(monkeypatch, name)
    digests = tuple(hashlib.sha256(s.encode()).hexdigest() for s in (step, rows))
    assert digests == DIGESTS[name]


def test_unit_rate_leaves_no_product_by_one(monkeypatch):
    step, _ = _sources(monkeypatch, "ring32_k1")
    assert "1.0 *" not in step and "* 1.0" not in step


def test_unit_parameters_fold_out_of_products_and_divisors():
    symbols = {"x": X, "y": Y, "a": A, "b": B}
    exprs = [parse_expr(t, symbols) for t in ("a*x", "a*a", "x/a", "x*y/a", "-(a*y)", "b*x", "a + x")]
    printed = FloatPrinter(exprs, {A: 1.0, B: -1.0}).emit({X: "x0", Y: "x1"})
    # -1.0*x and -x differ in the sign of a nan, so b = -1.0 stays
    assert printed == ["x0", "1.0", "x0", "x0 * x1", "-x1", "-1.0 * x0", "1.0 + x0"]


def test_parameter_only_sum_prints_as_its_value(monkeypatch):
    # mm's (km1 + k2)*c: the sum of two parameters is computed once, not in every stage
    step, rows = _sources(monkeypatch, "mm")
    assert "1.0 + 0.5" not in step and "1.0 + 0.5" not in rows
    assert "1.5 * x2" in step


def test_only_sums_products_and_negations_over_parameters_fold():
    symbols = {"x": X, "y": Y, "a": A, "b": B}
    texts = ("(a + b)*x", "-(a*b) + x", "a*b*x", "(a - 2)*(b + 1/3)", "x/(a + b)", "a/b", "(a + b)^2", "a*x + b*x")
    exprs = [parse_expr(t, symbols) for t in texts]
    printed = FloatPrinter(exprs, {A: 0.1, B: 0.2}).emit({X: "x0", Y: "x1"})
    assert printed == [
        f"{0.1 + 0.2!r} * x0",
        f"{-(0.1 * 0.2)!r} + x0",
        "0.1 * 0.2 * x0",  # factors of one product are not regrouped
        repr((0.1 + -2.0) * (0.2 + 1 / 3)),
        f"x0 / {0.1 + 0.2!r}",
        "0.1 / 0.2",
        f"{0.1 + 0.2!r} ** 2",
        "0.1 * x0 + 0.2 * x0",
    ]


def test_value_folded_to_a_bare_read_is_not_bound():
    # with a = 1.0, a*x is x and (x*y)/a is x*y: each is read as its text, not bound anew
    symbols = {"x": X, "y": Y, "a": A}
    texts = ("a*x", "-(a*x)", "(x*y)/a", "x*y", "(x*y)/a", "a*a", "a*a + x")
    exprs = [parse_expr(t, symbols) for t in texts]
    printed = FloatPrinter(exprs, {A: 1.0}).emit({X: "x0", Y: "x1"})
    assert printed == ["x0", "-x0", "(c0 := x0 * x1)", "c0", "c0", "1.0", "1.0 + x0"]


def test_witness_search_compiles_one_rk4_loop(monkeypatch):
    # chain-12 observing x6: x7..x12 are hidden, and threshold 0 makes the
    # search try both signs of all six
    sys = chain(12, 0)
    observed = ObservationSet((parse_expr("x6", sys.symbol_table()),), "mid")
    sources = _recording(monkeypatch)
    params = {p.name: 1.0 for p in sys.params}
    witness = numeric.unobservability_witness(
        sys, observed, [1.0] * sys.n, params, 0.1, 1.0, 0.1, threshold=0.0
    )
    assert witness is None
    assert [s.splitlines()[0].endswith("steps, pack, buf, offset):") for s in sources] == [True, False]
