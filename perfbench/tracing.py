"""Spans and counts for the traced run, recorded from outside the package.

Tracer.install wraps every public function defined in a stablecut layer
module and rebinds each wrapped name in every stablecut module namespace
that holds it (dualsdp imports eigen_smallest_two by name, and
solve_min_trace reaches polish_cut through its module globals).
Tracer.restore puts the originals back; assert_untraced proves it did.

A span is (name, op, start, end, parent).  The spans of one op stay in
memory until the op ends, then fold into per-function call counts,
inclusive time and self time (duration minus the child spans).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "graph", "generators", "oracle", "combinatorial", "spectral", "dualsdp", "report")
SWEEPS = ("oracle.brute_force_max_cut", "oracle.stability_report", "oracle.cheeger_constant")
_ORIGINAL = "__perfbench_original__"


def _package_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "stablecut" or name.startswith("stablecut."))
    ]


def assert_untraced() -> None:
    """Raise if any stablecut namespace still holds a tracing wrapper."""
    for mod in _package_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, _ORIGINAL):
                raise RuntimeError(f"tracing wrapper left on {mod.__name__}.{attr}")


class Tracer:
    def __init__(self):
        self.op = 0
        self.counts: Counter = Counter()  # event counts and per-function calls
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._bindings: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"stablecut.{layer}"]
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") and inspect.isfunction(obj)
                if public and obj.__module__ == mod.__name__:
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in _package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._bindings.append((mod, attr, obj))

    def restore(self) -> None:
        while self._bindings:
            mod, attr, obj = self._bindings.pop()
            setattr(mod, attr, obj)

    def _wrap(self, name: str, fn):
        spans, stack = self._spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self.op, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            self._observe(name, args, result)
            return result

        setattr(traced, _ORIGINAL, fn)
        return traced

    def _observe(self, name: str, args: tuple, result) -> None:
        """Counts read off arguments and results at the layer boundary."""
        if name in SWEEPS:
            self.counts["oracle.sweeps"] += 1
            self.counts["oracle.partitions"] += 1 << (args[0].n - 1)
        elif name == "dualsdp.solve_min_trace":
            self.counts["dualsdp.iterations"] += result.iterations
            self.counts["dualsdp.converged"] += int(result.converged)
        elif name == "combinatorial.find_max_cut_greedy":
            self.counts["combinatorial.merges"] += len(result[1])
        elif name == "combinatorial.greedy_applicability":
            self.counts["combinatorial.merges"] += len(result[0])  # one flag per merge

    def end_op(self) -> None:
        """Fold the finished op's spans into the totals and drop them."""
        child = [0.0] * len(self._spans)
        for i in range(len(self._spans) - 1, -1, -1):
            name, _, start, end, parent = self._spans[i]
            duration = end - start
            if parent >= 0:
                child[parent] += duration
            self.counts[name + ".calls"] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - child[i]
        self._spans.clear()
        self.op += 1

    def layer_self_s(self, layer: str) -> float:
        return sum(t for name, t in self.self_s.items() if name.startswith(layer + "."))
