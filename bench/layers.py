"""Span timers around the public functions of mrtucker's layer modules.

A layer is a module: io, ranks, graph, solver, linalg, tensor. While
``traced(tracer)`` is active, each public function those modules define is
replaced by a wrapper that records a span, and so is every module-level name
in the package that binds one (``mrtucker.solver.qf``, ``mrtucker.solve``,
...). ``solve`` reaches its helpers through module globals, so the spans show
the real sweep without any change to the package. Private helpers are not
wrapped; their time is part of their caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("io", "ranks", "graph", "solver", "linalg", "tensor")


def _update_factor_span(args, kwargs):
    n = args[3] if len(args) > 3 else kwargs["n"]
    return f"solver.update_factor.mode{n}"


def _mode_product_gflop(counts, args, kwargs):
    """Computed, not measured: 2 * J * prod(t.shape) for t x_n u, u of shape (J, I_n)."""
    t, u = args[0], args[1]
    counts["tensor.mode_product.gflop"] += 2.0 * u.shape[0] * t.size / 1e9


# spans named by an argument, and counters computed from arguments
SPAN_NAMERS = {"solver.update_factor": _update_factor_span}
COUNTERS = {"tensor.mode_product": _mode_product_gflop}


class Tracer:
    """In-memory spans of one repetition as [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def call(self, name, fn, args, kwargs):
        span = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: summed duration, self time (ms) and call count."""
        child = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, _, start, end), inner in zip(self.spans, child):
            agg = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0})
            agg["ms"] += (end - start) * 1e3
            agg["self_ms"] += (end - start - inner) * 1e3
            agg["calls"] += 1
        return out


def _layer_functions():
    """{qualified name: function} for the public functions each layer defines."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"mrtucker.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not name.startswith("_"):
                found[f"{layer}.{name}"] = obj
    return found


def span_names() -> list[str]:
    """Every span name a traced repetition can record."""
    names = [n for n in _layer_functions() if n not in SPAN_NAMERS]
    return names + [f"solver.update_factor.mode{n}" for n in range(3)]


def _wrap(fn, name, tracer: Tracer):
    namer = SPAN_NAMERS.get(name)
    counter = COUNTERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(tracer.counts, args, kwargs)
        return tracer.call(namer(args, kwargs) if namer else name, fn, args, kwargs)
    return wrapper


@contextmanager
def traced(tracer: Tracer):
    """Route every package-level binding of a layer function through tracer."""
    wrappers = {id(fn): _wrap(fn, name, tracer) for name, fn in _layer_functions().items()}
    patched = []
    for modname, mod in list(sys.modules.items()):
        if modname != "mrtucker" and not modname.startswith("mrtucker."):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in wrappers:
                patched.append((mod, attr, val))
                setattr(mod, attr, wrappers[id(val)])
    try:
        yield tracer
    finally:
        for mod, attr, val in patched:
            setattr(mod, attr, val)
