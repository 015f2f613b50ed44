"""In-memory spans around the benchmark's own calls into ``interfere``.

A span records its name, start, end, parent span and op id.  Each op the
benchmark runs is one span; every public library call the op makes is a
child span of it, named ``<module>.<call>`` after the layer it enters.
Spans are kept in a list and written out once, after the run.

With tracing off, :meth:`Tracer.call` is one attribute test and a plain
call, so the untraced run pays nothing measurable for the hooks.
"""

import itertools
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    op_id: int | None
    name: str
    start: float
    end: float
    failed: bool
    # Work the call did, in units named by the span's layer (pattern:
    # samples x live pairs).  Zero where no count applies.
    work: int = 0


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._parent: int | None = None
        self._op: int | None = None

    @contextmanager
    def span(self, name: str, op_id: int | None = None):
        """Open a span that later calls nest under; ``op_id`` marks an op span."""
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        outer = (self._parent, self._op)
        self._parent = span_id
        if op_id is not None:
            self._op = op_id
        start = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            self.spans.append(Span(span_id, outer[0], self._op, name, start, end, failed))
            self._parent, self._op = outer

    def call(self, name: str, fn, *args, work: int = 0):
        """``fn(*args)``, recorded as a leaf span named after the layer call."""
        if not self.enabled:
            return fn(*args)
        span_id = next(self._ids)
        start = time.perf_counter()
        failed = True
        try:
            result = fn(*args)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            self.spans.append(Span(span_id, self._parent, self._op, name, start, end, failed, work))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its child spans cover."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
        return {s.span_id: (s.end - s.start) - child_time.get(s.span_id, 0.0) for s in self.spans}

    def layer_metrics(self, calls: list[str]) -> dict[str, float]:
        """``calls``, ``ms_p50`` (self time), ``busy_s`` and ``failed`` per traced call.

        A call the workload never makes reports zero for all four.
        """
        self_time = self.self_times()
        by_name: dict[str, list[Span]] = {}
        for s in self.spans:
            by_name.setdefault(s.name, []).append(s)
        out = {}
        for name in calls:
            spans = by_name.get(name, [])
            times = [self_time[s.span_id] for s in spans]
            out[f"{name}.calls"] = len(spans)
            out[f"{name}.ms_p50"] = 1e3 * statistics.median(times) if times else 0.0
            out[f"{name}.busy_s"] = sum(times)
            out[f"{name}.failed"] = sum(s.failed for s in spans)
        return out

    def work_rate(self, name: str) -> float:
        """Work units per second of self time over every span named ``name``."""
        self_time = self.self_times()
        spans = [s for s in self.spans if s.name == name and not s.failed]
        busy = sum(self_time[s.span_id] for s in spans)
        return sum(s.work for s in spans) / busy if busy > 0 else 0.0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([asdict(s) for s in self.spans], handle)
