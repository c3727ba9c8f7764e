"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of every ``anncap`` module, plus the
kernel boundaries below them, from outside the package: nothing in ``src/``
knows it is being traced.  Each wrapped call records a span
``(id, name, start, end, parent, op, self_s)`` in memory; ``write_spans``
dumps them when the run ends.  ``Weight.evaluate`` is called millions of
times per pass, so it is recorded as an aggregate (calls, points, self
time) instead of one span per call; its time is still subtracted from the
enclosing span, so self times over an op add up to the op's wall time.

Spans and aggregates are only recorded while an op runs (``run_op``), so
the benchmark's own output checks never show up in the layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import networkx
import numpy as np
import scipy.integrate
import scipy.sparse.linalg

from anncap import weights

# the modules of the package, in dependency order; each one is a layer
LAYERS = ("weights", "spaces", "measure", "capacity", "network", "decay",
          "bounds", "gallery", "acceptance", "cli")

WEIGHT_CLASSES = ("Constant", "PowerAlpha", "BuckleyEta", "SummedBuckley",
                  "HalfLineCatalog", "Tabulated")


def _solve_name(args, kwargs):
    p = args[2] if len(args) > 2 else kwargs["p"]
    if p == 1:
        return "network.solve.mincut"
    return "network.solve.p2" if p == 2 else "network.solve.newton"


def _bowtie_name(args, kwargs):
    h = args[1] if len(args) > 1 else kwargs["h"]
    return f"network.build_bowtie_grid.h{round(1.0 / h)}"


def _cli_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.run.{argv[0] if argv else 'none'}"


# spans whose name depends on the arguments
_NAMERS = {
    "network.solve_p_energy": _solve_name,
    "network.build_bowtie_grid": _bowtie_name,
    "cli.run": _cli_name,
}


class Tracer:
    """Records spans and kernel aggregates for calls made inside ops."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op, self_s)
        self.stack = []          # open frames: [span id, child seconds]
        self.active = {}         # name -> open depth, for inclusive totals
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total, self
        self.counters = defaultdict(float)
        self.op_light = defaultdict(float)  # op -> seconds in aggregate-only calls
        self.op_id = -1
        self.next_id = 0
        self.recording = False
        self._restore = []

    # -- recording --------------------------------------------------------

    def run_op(self, name, fn):
        """Run one benchmark op as the root span of its own tree."""
        self.op_id += 1
        self.recording = True
        try:
            return self.call(name, fn, (), {})
        finally:
            self.recording = False

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span named name; calls outside an op pass through."""
        if not self.recording:
            return fn(*args, **kwargs)
        span_id = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        frame = [span_id, 0.0]
        self.stack.append(frame)
        self.active[name] = self.active.get(name, 0) + 1
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - start
            self_s = duration - frame[1]
            if self.stack:
                self.stack[-1][1] += duration
            depth = self.active[name] - 1
            self.active[name] = depth
            entry = self.totals[name]
            entry[0] += 1
            entry[2] += self_s
            if depth == 0:  # count recursion once in inclusive time
                entry[1] += duration
            self.spans.append((span_id, name, start, end, parent, self.op_id, self_s))

    def light(self, name, fn, args, kwargs):
        """Time fn as an aggregate only: no span, but its time is charged
        to the enclosing span's children."""
        if not self.recording:
            return fn(*args, **kwargs)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            self.stack[-1][1] += duration
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration
            self.op_light[self.op_id] += duration

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every public anncap function at every module binding, and
        the kernel boundaries below them."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"anncap.{layer}"]
            for attr in getattr(mod, "__all__", ()):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        modules = [mod for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "anncap" or name.startswith("anncap."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)
        for cls_name in WEIGHT_CLASSES:
            cls = getattr(weights, cls_name)
            self._patch(cls, "evaluate", self._wrap_evaluate(cls.evaluate, cls_name))
        self._patch(scipy.integrate, "quad", self._wrap_quad(scipy.integrate.quad))
        self._patch(scipy.sparse.linalg, "spsolve",
                    self._wrap(scipy.sparse.linalg.spsolve, "network.spsolve"))
        self._patch(networkx, "minimum_cut", self._wrap(networkx.minimum_cut, "network.min_cut"))
        return len(self._restore)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, name):
        namer = _NAMERS.get(name)
        tracer = self

        if name == "network.solve_p_energy":
            @functools.wraps(fn)
            def solve(*args, **kwargs):
                span = namer(args, kwargs)
                report = tracer.call(span, fn, args, kwargs)
                if tracer.recording and span == "network.solve.newton":
                    tracer.counters["network.newton.iterations"] += report.iterations
                    tracer.counters["network.newton.kkt_max"] = max(
                        tracer.counters["network.newton.kkt_max"], report.kkt_residual)
                return report
            return solve

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(namer(args, kwargs) if namer else name, fn, args, kwargs)
        return wrapper

    def _wrap_evaluate(self, fn, cls_name):
        tracer = self
        name = f"weights.{cls_name}.evaluate"

        @functools.wraps(fn)
        def evaluate(weight, rho):
            if tracer.recording:
                if np.ndim(rho) == 0:
                    tracer.counters[f"{name}.scalar_calls"] += 1
                else:
                    tracer.counters[f"{name}.array_points"] += np.size(rho)
            return tracer.light(name, fn, (weight, rho), {})
        return evaluate

    def _wrap_quad(self, fn):
        tracer = self

        @functools.wraps(fn)
        def quad(func, *args, **kwargs):
            if not tracer.recording:
                return fn(func, *args, **kwargs)

            def counted(*xs):
                tracer.counters["measure.quad.neval"] += 1
                return func(*xs)

            return tracer.call("measure.quad", fn, (counted,) + args, kwargs)
        return quad

    # -- reporting --------------------------------------------------------

    def op_self_sums(self):
        """op id -> (sum of self times of its spans, wall time of its root)."""
        sums = defaultdict(float)
        roots = {}
        for span_id, name, start, end, parent, op, self_s in self.spans:
            sums[op] += self_s
            if parent == -1:
                roots[op] = end - start
        return {op: (sums[op] + self.op_light.get(op, 0.0), roots[op]) for op in roots}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent", "op", "self_s"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

