"""Layer spans recorded from outside the program.

`Tracer.install` replaces each public function of each loaded plumbook
module by a wrapper, in every plumbook module namespace that holds it, so
calls between modules and within one module are both seen.  A span has a
name, a layer (the defining module), start and end, its parent span and
the operation id; spans stay in memory until `write` is called.  A
layer's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from typing import NamedTuple

PACKAGE = "plumbook"
LAYERS = ("cli", "report", "graph", "rational", "canonical", "divisor",
          "openbook", "family", "surgery")
# functions whose call counts are reported on their own; one that a later
# version removes reads 0
COUNTED = ("graph.validate", "rational.determinant", "rational.solve",
           "canonical.canonical_cycle", "openbook.verify_gluing",
           "divisor.minimal_openbook_divisor")


class Span(NamedTuple):
    op: int
    span: int
    parent: int        # -1 for a root span
    layer: str
    name: str
    start_ns: int
    end_ns: int
    self_ns: int       # end - start minus the child spans


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[list[int]] = []   # [span id, child ns] per open span
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and not fn.__name__.startswith("_")
                        and fn.__module__.startswith(PACKAGE + ".")):
                    if fn not in wrappers:
                        wrappers[fn] = self._wrap(fn, fn.__module__.rsplit(".", 1)[1])
                    setattr(module, attr, wrappers[fn])
                    self._patches.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, fn, layer: str):
        name = fn.__name__
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans) + len(stack), 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append(Span(self.op, frame[0], parent, layer, name,
                                  start, end, end - start - frame[1]))
        return traced

    def metrics(self, ops: int) -> dict:
        """Per-layer self time and calls, and the counted functions, as means
        per operation over `ops` traced operations."""
        self_ns = dict.fromkeys(LAYERS, 0)
        calls = dict.fromkeys(LAYERS, 0)
        counted = dict.fromkeys(COUNTED, 0)
        for s in self.spans:
            if s.layer in calls:
                self_ns[s.layer] += s.self_ns
                calls[s.layer] += 1
            key = f"{s.layer}.{s.name}"
            if key in counted:
                counted[key] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = {"value": self_ns[layer] / 1e6 / ops, "unit": "ms"}
            out[f"{layer}.calls"] = {"value": calls[layer] / ops, "unit": "count"}
        for key in COUNTED:
            out[f"{key}.calls"] = {"value": counted[key] / ops, "unit": "count"}
        return out

    def write(self, path: str, argv_by_op: dict[int, list[str]]) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, argv in sorted(argv_by_op.items()):
                fh.write(json.dumps({"op": op, "argv": argv}) + "\n")
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
