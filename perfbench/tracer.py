"""Outside-in tracer for odeobs layer functions.

The tracer wraps public functions of the odeobs modules from outside,
without touching the package.  A module that does ``from .expr import diff``
holds its own binding of ``diff``, so each wrapped function is replaced in
every odeobs module that binds it, under whatever name it is bound.  The
tree walkers of ``expr`` (``diff``, ``substitute``, ``eval_exact``,
``eval_float``) recurse through their own module-level names; they are left
unwrapped inside ``expr`` so that one span covers one call from another
layer, recursion included.

Spans are kept in memory (name, parent, start, end) and written out at the
end.  A span's self time is its inclusive time minus the inclusive time of
the wrapped calls it made.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

# Functions of expr that walk trees by calling themselves through the module
# global; wrapping that global would time every recursion step as a span.
RECURSIVE = frozenset({"expr.diff", "expr.substitute", "expr.eval_exact", "expr.eval_float"})


class Tracer:
    """Wraps ``module.function`` names of the odeobs package while installed.

    ``keep`` names functions whose return values (with the call's inclusive
    time) are retained in ``kept`` so that derived metrics can be computed
    after the traced work, outside any span.
    """

    def __init__(self, targets: Sequence[str], keep: Sequence[str] = ()):
        self.names: Tuple[str, ...] = tuple(targets)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        # (function, parent function or "", exception type) -> count
        self.raised: Dict[Tuple[str, str, str], int] = {}
        self.kept: Dict[str, List[tuple]] = {name: [] for name in keep}
        self._stack: List[list] = []  # [span id, name index, inclusive time of children]
        self._patches: List[Tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "odeobs" or name.startswith("odeobs."))
        ]
        for idx, qualified in enumerate(self.names):
            module_name, func_name = qualified.rsplit(".", 1)
            home = importlib.import_module(f"odeobs.{module_name}")
            original = getattr(home, func_name)
            wrapper = self._wrap(idx, original)
            for module in modules:
                if module is home and qualified in RECURSIVE:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()
        self._stack.clear()

    def _wrap(self, idx: int, fn: Callable) -> Callable:
        tracer = self
        clock = time.perf_counter
        keep = self.kept.get(self.names[idx])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            sid = len(tracer.span_start)
            tracer.span_name.append(idx)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            frame = [sid, idx, 0.0]
            stack.append(frame)
            start = clock()
            tracer.span_start.append(start)
            tracer.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(frame, start, clock())
                key = (
                    tracer.names[idx],
                    tracer.names[stack[-1][1]] if stack else "",
                    type(exc).__name__,
                )
                tracer.raised[key] = tracer.raised.get(key, 0) + 1
                raise
            inclusive = tracer._close(frame, start, clock())
            if keep is not None:
                keep.append((result, inclusive))
            return result

        return wrapper

    def _close(self, frame: list, start: float, end: float) -> float:
        stack = self._stack
        while stack and stack[-1] is not frame:  # unwound by an asynchronous exception
            stack.pop()
        if stack:
            stack.pop()
        sid, idx, children = frame
        inclusive = end - start
        self.span_end[sid] = end
        self.calls[idx] += 1
        self.self_s[idx] += inclusive - children
        if stack:
            stack[-1][2] += inclusive
        return inclusive

    # -- results ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Tuple[int, float]]:
        """Per function: (calls, self seconds) accumulated so far."""
        return {
            name: (self.calls[i], self.self_s[i]) for i, name in enumerate(self.names)
        }

    def raised_under(self, parent: str, exc_names: Sequence[str]) -> int:
        """Exceptions of the given types raised by wrapped direct children of ``parent``."""
        return sum(
            n for (_, p, e), n in self.raised.items() if p == parent and e in exc_names
        )

    def write_spans(self, path) -> int:
        """Write every span as one JSON line; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid in range(len(self.span_start)):
                fh.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": self.span_parent[sid],
                            "name": self.names[self.span_name[sid]],
                            "start": self.span_start[sid],
                            "end": self.span_end[sid],
                        }
                    )
                    + "\n"
                )
        return len(self.span_start)
