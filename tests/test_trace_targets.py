"""The benchmark tracer's targets name functions the package still has.

``perfbench/run.py --trace 1`` wraps every ``module.function`` listed in
``TARGETS`` of ``perfbench/workloads.py`` by looking it up on the ``odeobs``
package, so deleting, renaming or moving one of them breaks tracing.  The
list is read from the source file; nothing under ``perfbench/`` is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _targets():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/workloads.py defines no TARGETS")


TARGETS = _targets()


def test_targets_listed():
    assert len(TARGETS) > 0
    assert len(set(TARGETS)) == len(TARGETS)


@pytest.mark.parametrize("qualified", TARGETS)
def test_target_resolves(qualified):
    module_name, func_name = qualified.rsplit(".", 1)
    module = importlib.import_module(f"odeobs.{module_name}")
    assert callable(getattr(module, func_name, None)), qualified
