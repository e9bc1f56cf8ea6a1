"""In-memory span tracing around calls into the library's public functions.

A `Tracer` replaces the named functions of the ``embsformer`` modules with
thin wrappers while it is installed. Each wrapper records a `Span` (name,
kind, start, end, parent span, step id) in a list kept in memory; nothing is
written until the caller asks for the aggregate. Restoring puts every
original function object back on every module attribute it replaced.

Two kinds of span exist: ``layer`` spans around the model, graph, data and
training functions the caller names, and ``op`` spans around the tensor ops.
Op spans are leaves. A layer's self time is its duration minus the durations
of its direct child layer spans, so a layer keeps the ops it calls directly.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "embsformer"

# differentiable ops the model calls; each is wrapped as an op span
TENSOR_OPS = ("add", "sub", "mul", "matmul", "softmax", "relu", "scale", "reduce",
              "permute", "reshape", "slice_axis", "conv_time", "gather_rows")


@dataclass
class Span:
    name: str
    kind: str      # "layer" or "op"
    start: float   # perf_counter seconds
    end: float
    parent: int    # index of the enclosing span in the same list, -1 for a root
    step: object   # step or request id, or a phase label such as "setup-0"

    @property
    def duration(self):
        return self.end - self.start


def self_times(spans):
    """Per span: its duration minus the durations of its direct child layer spans."""
    children = defaultdict(float)
    for s in spans:
        if s.parent >= 0 and s.kind == "layer":
            children[s.parent] += s.duration
    return [s.duration - children[i] for i, s in enumerate(spans)]


class Tracer:
    """Wraps library functions on their module attributes while installed.

    ``layers`` names the layer functions to wrap as ``"<module>.<function>"``;
    every op in `TENSOR_OPS` is wrapped as well.
    """

    def __init__(self, layers):
        self.layers = tuple(layers)
        self.spans = []
        self.step = None
        self._stack = []
        self._patched = []   # (module, attribute, original)

    # -- installation ---------------------------------------------------

    def _modules(self):
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def targets(self):
        """(qualified name, kind, function) for every wrappable function present."""
        found = []
        for name in self.layers:
            mod_name, fn_name = name.split(".")
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if callable(fn):
                found.append((name, "layer", fn))
        ops = sys.modules.get(f"{PACKAGE}.tensor")
        for op in TENSOR_OPS:
            fn = getattr(ops, op, None)
            if callable(fn):
                found.append((f"tensor.{op}", "op", fn))
        return found

    def install(self):
        """Replace every module attribute bound to a target with its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): (fn, self._wrap(name, kind, fn)) for name, kind, fn in self.targets()}
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                fn, wrapper = wrappers.get(id(value), (None, None))
                if fn is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    @property
    def installed(self):
        return bool(self._patched)

    def restore(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, name, kind, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, kind, clock(), 0.0, stack[-1] if stack else -1, self.step)
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return traced

    # -- aggregation ----------------------------------------------------

    def per_unit(self, units):
        """{name: {"ms", "self_ms", "calls"}: one total per unit in ``units``}.

        Spans whose step id is not in ``units`` are ignored; a name that did
        not run in a unit counts 0 there.
        """
        units = list(units)
        pos = {u: i for i, u in enumerate(units)}
        own = self_times(self.spans)
        out = {}
        for i, s in enumerate(self.spans):
            j = pos.get(s.step)
            if j is None:
                continue
            row = out.get(s.name)
            if row is None:
                row = out[s.name] = {"ms": [0.0] * len(units),
                                     "self_ms": [0.0] * len(units),
                                     "calls": [0] * len(units)}
            row["ms"][j] += s.duration * 1e3
            row["self_ms"][j] += own[i] * 1e3
            row["calls"][j] += 1
        return out
