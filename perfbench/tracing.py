"""In-memory spans recorded around the benchmark's calls into cmtorsion.

A span has a name, a start and an end (seconds on the tracer's clock), the span
that caused it, the operation it belongs to, and optional integer
counts.  The untraced runs use NullTracer, whose span() hands back one
shared no-op context, so the timed loop pays a single call per layer.
"""

from __future__ import annotations

import json
import resource
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    parent: int | None
    op: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class _Open:
    __slots__ = ("tracer", "span", "rss")

    def __init__(self, tracer: "Tracer", span: Span, memory: bool):
        self.tracer = tracer
        self.span = span
        self.rss = _maxrss_kb() if memory else None

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc):
        self.span.end = self.tracer.clock()
        if self.rss is not None:
            # how far the process's peak resident set rose inside the span
            self.span.counts["maxrss_kb"] = _maxrss_kb() - self.rss
        self.tracer._stack.pop()
        return False


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op: int | None = None

    def begin_op(self, op: int):
        self._op = op

    def span(self, name: str, memory: bool = False) -> _Open:
        parent = self._stack[-1].sid if self._stack else None
        s = Span(len(self.spans), parent, self._op, name, self.clock())
        self.spans.append(s)
        self._stack.append(s)
        return _Open(self, s, memory)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "parent": s.parent, "op": s.op,
                                     "name": s.name, "start": s.start, "end": s.end,
                                     "counts": s.counts}) + "\n")


class _Null:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def __enter__(self):
        self.counts.clear()
        return self

    def __exit__(self, *exc):
        return False


class NullTracer:
    _null = _Null()

    def begin_op(self, op: int):
        pass

    def span(self, name: str, memory: bool = False) -> _Null:
        return self._null


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover (children
    of one span never overlap: every call here is synchronous)."""
    own = {s.sid: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own
