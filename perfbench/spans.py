"""Spans recorded by the benchmark around its calls into the library.

A span is (name, start, end, parent, input id).  Spans are kept in
memory and written out with the results.  A span's self time is its
duration minus the durations of its direct children; calls on one
thread nest, so children never overlap.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "start", "end", "parent", "input_id")

    def __init__(self, name: str, start: float, parent: Optional[int], input_id: Optional[str]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.input_id = input_id

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.input_id]


class _Open:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer: "Tracer", index: int):
        self.tracer = tracer
        self.index = index

    def __enter__(self) -> "_Open":
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.spans[self.index].end = perf_counter()
        self.tracer.stack.pop()


class Tracer:
    """Records nested spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []

    def span(self, name: str, input_id: Optional[str] = None) -> _Open:
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.stack.append(index)
        self.spans.append(Span(name, perf_counter(), parent, input_id))
        return _Open(self, index)


class _Nothing:
    __slots__ = ()

    def __enter__(self) -> "_Nothing":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOTHING = _Nothing()


class NullTracer:
    """Tracing off: a span costs one call and records nothing."""

    spans: List[Span] = []

    def span(self, name: str, input_id: Optional[str] = None) -> _Nothing:
        return _NOTHING


def self_times(spans: List[Span]) -> List[float]:
    """Self time of every span: its duration minus its children's."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def self_time_by_call(spans: List[Span], first: int = 0) -> Dict[str, float]:
    """Total self time per "name/input id" over spans[first:]."""
    totals: Dict[str, float] = {}
    selfs = self_times(spans)
    for s, t in zip(spans[first:], selfs[first:]):
        key = f"{s.name}/{s.input_id}"
        totals[key] = totals.get(key, 0.0) + t
    return totals
