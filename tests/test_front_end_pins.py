"""`verify` stdout and `graph --reduce` DOT pinned byte for byte.

The edges of a graph come from the semantic dependency test on each
right-hand side (a variable that cancels makes no edge), and `verify` runs
the exact zero test on each conserved quantity's derivative.  The bytes
below were recorded with the `Poly`-object rational forms, before the
packed-monomial pass, for the shipped SIR and Michaelis-Menten models and a
12-site Volterra ring, written out here.  The CI entry-point step compares
the SIR pins with the installed console script's output.

A model whose logs cancel, ``ln(x*y) - ln(x) - ln(y)``, takes the sampled
test of the ln/exp path: its `graph` DOT and the observation line of
`analyze` were recorded before the ln/exp states were tested in state
order, and sympy confirms that the x -> y edge is rightly absent.
"""

import pytest

from odeobs.cli import main

from conftest import model_path

RING12_MODEL = """\
model: ring12
params: k
states: x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11
dx0/dt = k*x11*x0 - k*x0*x1
dx1/dt = k*x0*x1 - k*x1*x2
dx2/dt = k*x1*x2 - k*x2*x3
dx3/dt = k*x2*x3 - k*x3*x4
dx4/dt = k*x3*x4 - k*x4*x5
dx5/dt = k*x4*x5 - k*x5*x6
dx6/dt = k*x5*x6 - k*x6*x7
dx7/dt = k*x6*x7 - k*x7*x8
dx8/dt = k*x7*x8 - k*x8*x9
dx9/dt = k*x8*x9 - k*x9*x10
dx10/dt = k*x9*x10 - k*x10*x11
dx11/dt = k*x10*x11 - k*x11*x0
conserved T: x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11
observe site: x0
"""

LOG_MODEL = """\
model: logs
params: k
states: x, y
dx/dt = k*y*(ln(x*y) - ln(x) - ln(y)) - k*x
dy/dt = k*x
observe y: y
"""

LOG_GRAPH_DOT = """\
digraph inference {
  subgraph cluster_0 {
    label="scc_0";
    x;
  }
  subgraph cluster_1 {
    label="scc_1 (source)";
    y [root=true, penwidth=2];
  }
  x -> x;
  y -> x;
}
"""

LOG_OBSERVATION_LINE = "  y = (y): graphical sufficient; rank 2/2 at k=1 (exact) -> observable-generic\n"

SIR_VERIFY_STDOUT = """\
N = S + I + R: exact
"""

SIR_GRAPH_REDUCE_DOT = """\
digraph inference {
  subgraph cluster_0 {
    label="scc_0";
    S;
    R;
  }
  subgraph cluster_1 {
    label="scc_1 (source)";
    I [root=true, penwidth=2];
  }
  S -> S;
  S -> R;
  I -> S;
  I -> R;
  R -> S;
  R -> R;
}
"""

MM_VERIFY_STDOUT = """\
E0 = e + c: exact
S0 = s + c + p: exact
"""

MM_GRAPH_REDUCE_S0_DOT = """\
digraph inference {
  subgraph cluster_0 {
    label="scc_0";
    e;
    c;
    p;
  }
  subgraph cluster_1 {
    label="scc_1 (source)";
    s [root=true, penwidth=2];
  }
  e -> e;
  e -> c;
  e -> p;
  s -> e;
  s -> c;
  s -> p;
  c -> e;
  c -> c;
  c -> p;
  p -> c;
}
"""

MM_GRAPH_REDUCE_E0_DOT = """\
digraph inference {
  subgraph cluster_0 {
    label="scc_0 (source)";
    e [root=true, penwidth=2];
  }
  subgraph cluster_1 {
    label="scc_1";
    s;
    c;
  }
  subgraph cluster_2 {
    label="scc_2 (source)";
    p [root=true, penwidth=2];
  }
  e -> s;
  e -> c;
  s -> s;
  s -> c;
  c -> s;
  c -> c;
  p -> c;
}
"""

RING12_VERIFY_STDOUT = """\
T = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9 + x10 + x11: exact
"""

RING12_GRAPH_REDUCE_DOT = """\
digraph inference {
  subgraph cluster_0 {
    label="scc_0 (source)";
    x0 [root=true, penwidth=2];
  }
  subgraph cluster_1 {
    label="scc_1";
    x1;
    x2;
    x3;
    x4;
    x5;
    x6;
    x7;
    x8;
    x9;
    x10;
    x11;
  }
  x0 -> x1;
  x0 -> x2;
  x0 -> x3;
  x0 -> x4;
  x0 -> x5;
  x0 -> x6;
  x0 -> x7;
  x0 -> x8;
  x0 -> x9;
  x0 -> x10;
  x0 -> x11;
  x1 -> x1;
  x1 -> x2;
  x1 -> x3;
  x1 -> x4;
  x1 -> x5;
  x1 -> x6;
  x1 -> x7;
  x1 -> x8;
  x1 -> x9;
  x1 -> x10;
  x1 -> x11;
  x2 -> x1;
  x2 -> x2;
  x2 -> x3;
  x3 -> x2;
  x3 -> x3;
  x3 -> x4;
  x4 -> x3;
  x4 -> x4;
  x4 -> x5;
  x5 -> x4;
  x5 -> x5;
  x5 -> x6;
  x6 -> x5;
  x6 -> x6;
  x6 -> x7;
  x7 -> x6;
  x7 -> x7;
  x7 -> x8;
  x8 -> x7;
  x8 -> x8;
  x8 -> x9;
  x9 -> x8;
  x9 -> x9;
  x9 -> x10;
  x10 -> x9;
  x10 -> x10;
  x10 -> x11;
  x11 -> x1;
  x11 -> x2;
  x11 -> x3;
  x11 -> x4;
  x11 -> x5;
  x11 -> x6;
  x11 -> x7;
  x11 -> x8;
  x11 -> x9;
  x11 -> x10;
  x11 -> x11;
}
"""

RING12_GRAPH_DOT = """\
digraph inference {
  subgraph cluster_0 {
    label="scc_0 (source)";
    x0 [root=true, penwidth=2];
    x1 [root=true, penwidth=2];
    x2 [root=true, penwidth=2];
    x3 [root=true, penwidth=2];
    x4 [root=true, penwidth=2];
    x5 [root=true, penwidth=2];
    x6 [root=true, penwidth=2];
    x7 [root=true, penwidth=2];
    x8 [root=true, penwidth=2];
    x9 [root=true, penwidth=2];
    x10 [root=true, penwidth=2];
    x11 [root=true, penwidth=2];
  }
  x0 -> x0;
  x0 -> x1;
  x0 -> x11;
  x1 -> x0;
  x1 -> x1;
  x1 -> x2;
  x2 -> x1;
  x2 -> x2;
  x2 -> x3;
  x3 -> x2;
  x3 -> x3;
  x3 -> x4;
  x4 -> x3;
  x4 -> x4;
  x4 -> x5;
  x5 -> x4;
  x5 -> x5;
  x5 -> x6;
  x6 -> x5;
  x6 -> x6;
  x6 -> x7;
  x7 -> x6;
  x7 -> x7;
  x7 -> x8;
  x8 -> x7;
  x8 -> x8;
  x8 -> x9;
  x9 -> x8;
  x9 -> x9;
  x9 -> x10;
  x10 -> x9;
  x10 -> x10;
  x10 -> x11;
  x11 -> x0;
  x11 -> x10;
  x11 -> x11;
}
"""


CASES = [
    ("sir", ["verify"], SIR_VERIFY_STDOUT),
    ("sir", ["graph", "--reduce", "N:I"], SIR_GRAPH_REDUCE_DOT),
    ("mm", ["verify"], MM_VERIFY_STDOUT),
    ("mm", ["graph", "--reduce", "S0:s"], MM_GRAPH_REDUCE_S0_DOT),
    ("mm", ["graph", "--reduce", "E0:e"], MM_GRAPH_REDUCE_E0_DOT),
    ("ring12", ["verify"], RING12_VERIFY_STDOUT),
    ("ring12", ["graph", "--reduce", "T:x0"], RING12_GRAPH_REDUCE_DOT),
    ("ring12", ["graph"], RING12_GRAPH_DOT),
]


@pytest.mark.parametrize(
    "model, command, expected", CASES, ids=[f"{m}-{' '.join(c)}" for m, c, _ in CASES]
)
@pytest.mark.parametrize("seed", ["0", "5"])
def test_stdout_is_pinned(model, command, expected, seed, tmp_path, capsys):
    if model == "ring12":
        path = tmp_path / "ring12.model"
        path.write_text(RING12_MODEL, encoding="utf-8")
    else:
        path = model_path(model)
    code = main([command[0], str(path), *command[1:], "--seed", seed])
    out = capsys.readouterr().out
    assert code == 0
    assert out == expected


@pytest.mark.parametrize("seed", ["0", "1"])
def test_cancelling_log_graph_is_pinned(seed, tmp_path, capsys):
    path = tmp_path / "logs.model"
    path.write_text(LOG_MODEL, encoding="utf-8")
    assert main(["graph", str(path), "--seed", seed]) == 0
    assert capsys.readouterr().out == LOG_GRAPH_DOT


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_cancelling_log_observation_line_is_pinned(seed, tmp_path, capsys):
    path = tmp_path / "logs.model"
    path.write_text(LOG_MODEL, encoding="utf-8")
    assert main(["analyze", str(path), "--seed", seed]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert [line for line in lines if line.startswith("  y = ")] == [LOG_OBSERVATION_LINE]


def test_cancelling_log_has_no_x_to_y_edge_in_sympy():
    sympy = pytest.importorskip("sympy")
    x, y, k = sympy.symbols("x y k", positive=True)
    f = k * y * (sympy.log(x * y) - sympy.log(x) - sympy.log(y)) - k * x
    assert sympy.expand_log(sympy.diff(f, y), force=True) == 0
