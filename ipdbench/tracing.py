"""Spans around the ipd package's public functions, recorded from outside.

A traced function is replaced, for the length of a traced call, at every
name in the `ipd` modules that is bound to it, so each caller (including
the package's own modules, e.g. `ipd.report.h1_basis` or
`ipd.cycles.validate_cycle`) reaches the wrapper. Nothing under `src/`
changes, and an untraced call runs the original functions.

A span is [name, start, end, parent, connection, args, result]; spans are
kept in memory and written out when the run ends. Self time is a span's
duration minus the durations of its child spans (one thread, so children
never overlap).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute): the public functions the benchmark times.
# SpanTracker.add is a method, so it is replaced on the class.
TARGETS = (
    ("connection.singular_profile", "ipd.connection", "singular_profile"),
    ("derham.h1_basis", "ipd.derham", "h1_basis"),
    ("linalg.span_add", "ipd.linalg", "SpanTracker.add"),
    ("homology.rd_profile", "ipd.homology", "rd_profile"),
    ("stokes.stokes_geometry", "ipd.stokes", "stokes_geometry"),
    ("cycles.candidate_basis", "ipd.cycles", "candidate_basis"),
    ("cycles.validate_cycle", "ipd.cycles", "validate_cycle"),
    ("quadrature.period_matrix", "ipd.quadrature", "period_matrix"),
    ("quadrature.integrate_cycle", "ipd.quadrature", "integrate_cycle"),
    ("report.generate_report", "ipd.report", "generate_report"),
)

ROOT_SPAN = "bench.connection"

NAME, START, END, PARENT, CONN, ARGS, RESULT = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._conn = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._conn, args, None]
            spans.append(rec)
            stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                rec[RESULT] = fn(*args, **kwargs)
                return rec[RESULT]
            except Exception as exc:
                rec[RESULT] = exc
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Rebind every traced function at each name that refers to it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "ipd" or n.startswith("ipd.")]
        undo = []
        for name, modname, attr in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                undo.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    @contextmanager
    def connection(self, conn_id: int):
        """Root span of one connection; every span inside it shares conn_id."""
        self._conn = conn_id
        rec = [ROOT_SPAN, time.perf_counter(), 0.0, -1, conn_id, (), None]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self._conn = -1

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict[str, float]:
        """Self seconds per span name over spans[lo:hi]."""
        spans = self.spans[lo:hi]
        own = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= lo:
                own[s[PARENT] - lo] -= s[END] - s[START]
        out: dict[str, float] = defaultdict(float)
        for s, t in zip(spans, own):
            out[s[NAME]] += t
        return dict(out)

    def span_cost(self, batches: int = 9, n: int = 20000) -> float:
        """Seconds one wrapper adds to a call: the median over batches of a
        wrapped no-op's time per call minus the bare no-op's. The spans it
        records are dropped."""
        def noop():
            return None

        wrapped = self._wrap("calibration", noop)
        lo = len(self.spans)

        def per_call(fn):
            t0 = time.perf_counter()
            for _ in range(n):
                fn()
            return (time.perf_counter() - t0) / n

        costs = []
        for _ in range(batches):
            costs.append(per_call(wrapped) - per_call(noop))
            del self.spans[lo:]
        return statistics.median(costs)

    def calls(self, lo: int = 0, hi: int | None = None) -> dict[str, list[list]]:
        out: dict[str, list[list]] = defaultdict(list)
        for s in self.spans[lo:hi]:
            out[s[NAME]].append(s)
        return out

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent, connection."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "name": s[NAME],
                    "start": s[START] - t0,
                    "end": s[END] - t0,
                    "parent": s[PARENT],
                    "conn": s[CONN],
                }) + "\n")
