"""Span recorder for the traced run.

The recorder wraps public entry points of the mpsolve layers from outside
the package (module attributes are swapped, nothing under src/ changes).
Each call becomes a span: name, start, end, parent span id and op id.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass

# (module, attribute, span name).  Both eigendecompose bindings record one
# span name: the layer is the callee, not the caller.
WRAPPED = (
    ("mpsolve.scenario", "parse_scenario", "scenario.parse_scenario"),
    ("mpsolve.scenario", "run_scenario", "scenario.run_scenario"),
    ("mpsolve.scenario", "converge_scenario", "scenario.converge_scenario"),
    ("mpsolve.scenario", "compare_dirac_scenario", "scenario.compare_dirac_scenario"),
    ("mpsolve.scenario", "evolve", "projection.evolve"),
    ("mpsolve.scenario", "eigendecompose", "eigensolver.eigendecompose"),
    ("mpsolve.projection", "eigendecompose", "eigensolver.eigendecompose"),
    ("mpsolve.projection", "intermediate_energy", "projection.intermediate_energy"),
    ("mpsolve.core", "HamiltonianSpec.potential_on_grid", "core.potential_on_grid"),
    ("mpsolve.dirac", "perturbation_elements", "dirac.perturbation_elements"),
    ("mpsolve.dirac", "integrate_amplitudes", "dirac.integrate_amplitudes"),
    ("mpsolve.dirac", "first_order_amplitude", "dirac.first_order_amplitude"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the recorder's spans, -1 for an op's root
    op: int


class SpanRecorder:
    """Records spans and per-op counters while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping
    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counters[self._op][key] += amount

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) under a root span named "op" and return its result."""
        self._op = op_id
        sid = self._open("op")
        try:
            return fn(*args)
        finally:
            self._close(sid)

    def root(self, op_id: int) -> Span:
        return next(s for s in self.spans if s.op == op_id and s.parent == -1)

    # -- wrapping
    def _wrapper(self, fn, name: str, observe):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict[str, object], observers: dict[str, object]) -> None:
        """Swap every WRAPPED attribute for a tracing wrapper."""
        for module_name, attr, name in WRAPPED:
            owner = modules[module_name]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf)
            self._restore.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrapper(fn, name, observers.get(name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, fn = self._restore.pop()
            setattr(owner, leaf, fn)

    # -- analysis
    def self_times(self) -> list[float]:
        """Each span's duration minus the part of it its child spans cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent].append(s)
        out = []
        for sid, s in enumerate(self.spans):
            covered, edge = 0.0, s.start
            for c in sorted(children.get(sid, ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge, s.start), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out.append((s.end - s.start) - covered)
        return out

    def per_op(self) -> dict[int, dict[str, dict[str, float]]]:
        """op id -> span name -> {"calls", "total_s", "self_s"}."""
        selfs = self.self_times()
        ops: dict[int, dict[str, dict[str, float]]] = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}))
        for s, self_s in zip(self.spans, selfs):
            entry = ops[s.op][s.name]
            entry["calls"] += 1
            entry["total_s"] += s.end - s.start
            entry["self_s"] += self_s
        return ops

    def closure_errors(self, tol: float = 1e-9) -> list[str]:
        """For each op, the self times of its spans must add up to the op's
        wall time (the root span's duration)."""
        selfs = self.self_times()
        sums: dict[int, float] = defaultdict(float)
        for s, self_s in zip(self.spans, selfs):
            sums[s.op] += self_s
        errors = []
        for op, total in sorted(sums.items()):
            root = self.root(op)
            wall = root.end - root.start
            if not abs(total - wall) <= tol * max(wall, 1.0):
                errors.append("op %d: span self times add to %.9f s, op wall %.9f s"
                              % (op, total, wall))
        return errors

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([[s.name, s.start, s.end, s.parent, s.op] for s in self.spans], fh)
            fh.write("\n")
