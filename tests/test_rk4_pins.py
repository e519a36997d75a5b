"""RK4 output pinned bit for bit, and the failures it reports.

Every digest and message below was recorded with the stepper that called a
compiled right-hand side once per stage on a list of stage inputs, and that
evaluated drift and outputs row by row on numpy scalars.  A faster stepper
must reproduce all of them exactly: the same trajectory bytes, the same
drift floats, the same truncation point and the same error text.

The models come from a small generator here: the Volterra ring and the
linear cascade of the benchmark families, the four shipped models, a
one-state model, and a model whose right-hand sides repeat structurally
equal subtrees parsed separately.
"""

import hashlib
import random

import pytest

from odeobs.cli import main
from odeobs.model import parse_model
from odeobs.numeric import (
    EvaluationError,
    conserved_drift,
    distinguishability,
    integrate_rk4,
)

from conftest import model_path


def _model(name, params, states, rhs, conserved=(), observe=()):
    lines = [f"model: {name}", "params: " + ", ".join(params), "states: " + ", ".join(states)]
    lines += [f"d{s}/dt = {rhs[s]}" for s in states]
    lines += [f"conserved {level}: {expr}" for level, expr in conserved]
    lines += [f"observe {label}: {ids}" for label, ids in observe]
    return parse_model("\n".join(lines) + "\n")


def ring(n):
    xs = [f"x{i}" for i in range(n)]
    rhs = {x: f"k*{xs[i - 1]}*{x} - k*{x}*{xs[(i + 1) % n]}" for i, x in enumerate(xs)}
    return _model(f"ring{n}", ["k"], xs, rhs, [("T", " + ".join(xs))], [("site", "x0")])


def chain(n, seed):
    xs = [f"x{i}" for i in range(1, n + 1)]
    ks = [f"k{i}" for i in range(1, n)]
    rhs = {}
    for i, x in enumerate(xs):
        inflow = f"{ks[i - 1]}*{xs[i - 1]}" if i > 0 else ""
        outflow = f"{ks[i]}*{x}" if i < n - 1 else ""
        rhs[x] = f"{inflow} - {outflow}" if inflow and outflow else inflow or f"-{outflow}"
    order = list(xs)
    random.Random(f"chain{n}:{seed}").shuffle(order)
    return _model(f"chain{n}", ks, order, rhs, [("T", " + ".join(xs))], [("end", xs[-1])])


ONE_STATE = _model("decay", ["a"], ["x"], {"x": "-a*x + x^2/(1 + x^2)"})

# (u + v)^2, 1 + w^2 and c*u*v recur within and across equations, each
# parsed on its own; every node kind appears, and Neg terms sit inside sums
SHARED = _model(
    "shared",
    ["k", "c"],
    ["u", "v", "w"],
    {
        "u": "k*(u + v)^2/(1 + w^2) - c*u*v",
        "v": "c*u*v - k*(u + v)^2/(1 + w^2) + ln(1 + w^2) - exp(-v)",
        "w": "(u + v)^2*w^-2/10 - (u + v)*w + -(c*u*v) - 1/(1 + w^2)",
    },
    [("Q", "u + v + ln(1 + w^2)")],
)


def _load(name):
    return parse_model(model_path(name).read_text())


def _ring_x0(n):
    return [1.0 + (i % 5) / 10.0 for i in range(n)]


def _chain_case():
    sys = chain(32, 1)
    params = {p.name: 1.0 + (int(p.name[1:]) % 3) / 4.0 for p in sys.params}
    x0 = {s.name: 0.5 + (int(s.name[1:]) % 7) / 3.0 for s in sys.states}
    return sys, x0, params, 0.05, 10.0


# name -> (system, x0, params, dt, T)
CASES = {
    "ring32_k1": lambda: (ring(32), _ring_x0(32), {"k": 1.0}, 0.01, 20.0),
    "ring32_k07": lambda: (ring(32), _ring_x0(32), {"k": 0.7}, 0.01, 20.0),
    "chain32_perm1": _chain_case,
    "sir": lambda: (_load("sir"), (997.0, 3.0, 0.0), {"beta": 0.0004, "lambda": 0.04}, 0.01, 100.0),
    "mm": lambda: (_load("mm"), (1.0, 5.0, 0.0, 0.0), {"k1": 2.0, "km1": 1.0, "k2": 0.5}, 0.01, 10.0),
    "toy": lambda: (_load("toy"), (2.0, 5.0), {"a": 1.0}, 1e-3, 1.0),
    "toy_diverging": lambda: (_load("toy"), (1.0, 1.0), {"a": 80.0}, 0.1, 20.0),
    "lv": lambda: (_load("lv"), (2.0, 1.0), {"R": 2.0, "D": 1.0, "B": 1.0, "M": 1.0}, 0.01, 20.0),
    "one_state": lambda: (ONE_STATE, (0.5,), {"a": 0.3}, 0.01, 5.0),
    "shared": lambda: (SHARED, (1.0, 0.5, 2.0), {"k": 0.25, "c": 0.5}, 0.01, 2.0),
}

# name -> (sha256 of values.tobytes(), diverged, len(times))
TRAJECTORIES = {
    'chain32_perm1': ('a3b8c01ff62675e48cda2877551544cf0c87bbcd38aef23e022c422bb311baba', False, 201),
    'lv': ('25768171ab52de5a6683f75f155b1606b629eb58148fd502ac8101a2bedb9c8a', False, 2001),
    'mm': ('64440d3192198d22a74ecd771aa3e5226278bca5e2010952f0369d613bc9dbd7', False, 1001),
    'one_state': ('79c54df7b28c86851726197f2c6ebbdde28ea516ce340b3067e73b999b7f9313', False, 501),
    'ring32_k07': ('d4721557a1d9ec9083d771191e18f5a0697b01b96a9b4eb45387041020b2b55f', False, 2001),
    'ring32_k1': ('29445c1c9b524622ea5bc8e1888071cbc1282cd3f8ca0a093826e1c1b257004c', False, 2001),
    'shared': ('7c73da74b68ff4aae4b3a0f1a11bd7f9d2f6b01587360273af935dae189b0449', False, 201),
    'sir': ('cc6428e43e08595e00e81ff418735bbbd271b0cc50617c9e149420bf2ba35c05', False, 10001),
    'toy': ('c58ca8e7589e2586c9628748449f1cbb175c2eab439378bb9800a86c73af5101', False, 1001),
    'toy_diverging': ('81e8f843fbca985638b42aa1b728c84022ef5e63a4f4d36f54abd98e2562b905', True, 124),
}

# (case, conserved level) -> repr of the drift
DRIFTS = {
    ('chain32_perm1', 'T'): '2.1316282072803006e-14',
    ('lv', 'Q0'): '3.8865963780665425e-09',
    ('mm', 'E0'): '2.6645352591003757e-15',
    ('mm', 'S0'): '3.552713678800501e-15',
    ('ring32_k07', 'T'): '2.842170943040401e-14',
    ('ring32_k1', 'T'): '2.842170943040401e-14',
    ('shared', 'Q'): '2.557665202453693',
    ('sir', 'N'): '2.5011104298755527e-12',
    ('toy', 'Q0'): '1.0658141036401503e-14',
    ('toy_diverging', 'Q0'): '30.0',
}


def _digest(traj):
    return hashlib.sha256(traj.values.tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_bytes(name):
    traj = integrate_rk4(*CASES[name]())
    assert (_digest(traj), traj.diverged, len(traj.times)) == TRAJECTORIES[name]


@pytest.mark.parametrize("case, level", sorted(DRIFTS))
def test_drift_floats(case, level):
    sys, x0, params, dt, T = CASES[case]()
    traj = integrate_rk4(sys, x0, params, dt, T)
    assert repr(conserved_drift(traj, sys.conserved_named(level))) == DRIFTS[(case, level)]


def test_output_distance_floats():
    sys, x0, params, dt, T = CASES["mm"]()
    obs = sys.observations[1]  # e, c
    pair = distinguishability(sys, obs, x0, (1.0, 5.0, 0.0, 0.25), params, dt, T)
    assert pair.output_distance == 0.0
    pair = distinguishability(sys, obs, x0, (1.0, 5.25, 0.0, 0.0), params, dt, T)
    assert repr(pair.output_distance) == OUTPUT_DISTANCE


OUTPUT_DISTANCE = '0.033721794111751024'

SIR_CSV_SHA256 = '28f1f7e10e55ef4efd300a2e78bc096b0e21384251511c7cfc4d75d30215ac00'
SIR_SIMULATE_STDOUT = 'integrated sir: 10001 points, dt=0.01, T=100.0\ndrift N: 2.501e-12\n'


def test_sir_simulate_csv_bytes(tmp_path, capsys):
    csv = tmp_path / "sir.csv"
    code = main([
        "simulate", str(model_path("sir")), "--x0", "997,3,0",
        "--params", "beta=0.0004,lambda=0.04", "--dt", "0.01", "--T", "100",
        "--csv", str(csv),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == SIR_CSV_SHA256
    assert out == SIR_SIMULATE_STDOUT


# failure cases: name -> (model, x0, params, dt, T)
FAILURES = {
    # x reaches 0 exactly on the grid; a stage divides by it
    "division_by_zero": (
        _model("pole", ["a"], ["x", "y"], {"x": "-a", "y": "1/x"}), (1.0, 0.0), {"a": 1.0}, 0.25, 2.0
    ),
    # the second stage of the second step takes ln of a negative value
    "ln_negative": (
        _model("lnneg", ["a"], ["x", "y"], {"x": "-a", "y": "ln(x)"}), (0.3, 0.0), {"a": 1.0}, 0.25, 2.0
    ),
}

# name -> (t, str(error))
RAISED = {
    'division_by_zero': (0.75, 'evaluation failed at t=0.75: division by zero'),
    'ln_negative': (0.25, 'evaluation failed at t=0.25: math domain error'),
}


@pytest.mark.parametrize("name", sorted(FAILURES))
def test_stage_error_is_reported_at_the_same_time(name):
    sys, x0, params, dt, T = FAILURES[name]
    with pytest.raises(EvaluationError) as info:
        integrate_rk4(sys, x0, params, dt, T)
    assert (info.value.t, str(info.value)) == RAISED[name]


TRUNCATIONS = {
    # a float power overflows inside a stage (OverflowError), near t = 2.56
    "power_overflow": (_model("pow40", ["a"], ["x"], {"x": "a*x^40"}), (1.0,), {"a": 0.01}, 0.01, 5.0),
    # a product reaches inf without raising: the non-finite check
    "inf_product": (
        _model("blowup", ["a"], ["x", "y"], {"x": "a*x*y", "y": "x*y"}), (2.0, 3.0), {"a": 1.0}, 0.1, 20.0
    ),
}

# name -> (sha256 of values.tobytes(), diverged, len(times))
TRUNCATED = {
    'inf_product': ('2427020d1d40f81d6c8e0e7b906eb46e3dcdd69ca92e4161b18a97f1df73e94d', True, 7),
    'power_overflow': ('0fc612f7c93427286094a4d02377ee985b2d88617844f49338bdc4e6194b2dd7', True, 258),
}


@pytest.mark.parametrize("name", sorted(TRUNCATIONS))
def test_divergence_truncates_at_the_same_step(name):
    traj = integrate_rk4(*TRUNCATIONS[name])
    assert (_digest(traj), traj.diverged, len(traj.times)) == TRUNCATED[name]
