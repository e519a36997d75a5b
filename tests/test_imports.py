"""numpy stays unloaded on the exact path, and no class is a dataclass.

``analyze``, ``verify`` and ``graph`` answer from exact arithmetic; numpy is
imported only by the functions that build or read a float array.  The
records are named tuples, which ``@dataclass`` would cost start-up time to
generate code for.  Each case runs in a fresh interpreter, because this test
process has loaded numpy long before.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from conftest import model_path
from test_rk4_pins import SIR_SIMULATE_STDOUT

ROOT = Path(__file__).resolve().parent.parent

# model -> the LEVEL:VAR of its ``graph --reduce`` and that command's exit code
# (lv's invariant is not affine in any state, so its reduction is refused)
REDUCTIONS = {"sir": ("N:I", 0), "mm": ("S0:c", 0), "toy": ("Q0:R", 0), "lv": ("Q0:r", 2)}


def _fresh(code: str):
    """The JSON that ``code``, run in a new interpreter importing from ``src``, prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, check=True, timeout=120, capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("module", ["odeobs", "odeobs.cli"])
def test_import_leaves_numpy_unloaded(module):
    assert _fresh(f"""
        import json, sys
        import {module}
        print(json.dumps("numpy" in sys.modules))
    """) is False


def test_no_odeobs_class_is_a_dataclass():
    assert _fresh("""
        import inspect, json, sys
        import odeobs.cli
        print(json.dumps(sorted(
            f"{name}.{cls.__name__}"
            for name, module in list(sys.modules.items())
            if name == "odeobs" or name.startswith("odeobs.")
            for _, cls in inspect.getmembers(module, inspect.isclass)
            if hasattr(cls, "__dataclass_fields__")
        )))
    """) == []


def test_compiled_rk4_loop_leaves_numpy_unloaded():
    rows, loaded = _fresh(f"""
        import json, struct, sys
        from odeobs.model import load_model
        from odeobs.numeric import compile_functions
        sir = load_model({str(model_path("sir"))!r})
        params = dict(zip(sir.params, (0.0004, 0.04)))
        run = compile_functions(sir.states, sir.rhs, params, 0.01)
        offset, _ = run(997.0, 3.0, 0.0, 3, struct.Struct("3d").pack_into, bytearray(72), 0)
        print(json.dumps([offset // 24, "numpy" in sys.modules]))
    """)
    assert (rows, loaded) == (3, False)


@pytest.mark.parametrize("name", sorted(REDUCTIONS))
def test_exact_commands_leave_numpy_unloaded(tmp_path, name):
    spec, reduce_code = REDUCTIONS[name]
    model = str(model_path(name))
    commands = [
        ["analyze", model, "--json", str(tmp_path / "report.json")],
        ["verify", model],
        ["graph", model],
        ["graph", model, "--reduce", spec],
    ]
    results = _fresh(f"""
        import contextlib, io, json, sys
        from odeobs.cli import main
        results = []
        for argv in {commands!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            results.append([" ".join(argv[:1] + argv[2:3]), code, "numpy" in sys.modules])
        print(json.dumps(results))
    """)
    assert results == [
        ["analyze --json", 0, False],
        ["verify", 0, False],
        ["graph", 0, False],
        ["graph --reduce", reduce_code, False],
    ]


def test_simulate_loads_numpy_and_prints_the_same_bytes():
    before, out, after = _fresh(f"""
        import contextlib, io, json, sys
        from odeobs.cli import main
        before = "numpy" in sys.modules
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main([
                "simulate", {str(model_path("sir"))!r}, "--x0", "997,3,0",
                "--params", "beta=0.0004,lambda=0.04", "--dt", "0.01", "--T", "100",
            ]) == 0
        print(json.dumps([before, out.getvalue(), "numpy" in sys.modules]))
    """)
    assert (before, out, after) == (False, SIR_SIMULATE_STDOUT, True)
