"""In-memory trace spans for the benchmark.

A span records a name, its start and end on the `perf_counter` clock, the
index of the span that was open when it started, and a dict of counts the
caller may fill in (strings enumerated, points swept, ...).  Spans stay in
memory until the run ends; `NullTracer` is what untraced runs pass around,
so the same job code runs with tracing on and off.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans, and the rank tables built under them, for one run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.builds: list[tuple] = []  # (source, n, budget) of every rank table built
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), parent=parent, counts=counts)
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record.counts
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def note_build(self, source, n: int, budget: int) -> None:
        self.builds.append((source, n, budget))

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        return own

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def count(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def as_json(self) -> list[dict]:
        own = self.self_seconds()
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "self_s": own[i],
                "counts": s.counts,
            }
            for i, s in enumerate(self.spans)
        ]


class NullTracer:
    """Tracer stand-in for untraced runs: records nothing."""

    @contextmanager
    def span(self, name: str, **counts):
        yield counts

    def note_build(self, source, n: int, budget: int) -> None:
        pass
