"""In-memory spans for the traced (``--trace 1``) runs.

Spans are recorded by the benchmark's own files around each call into a
layer's public functions; nothing inside ``src/`` is instrumented.  A
span carries its name, layer, start/end ``perf_counter_ns``, the span
that caused it and the trace id shared by every span under one root.
Spans stay in memory and are written to ``trace.json`` when the run
ends.

A layer's *self time* is its spans' duration minus the part covered by
their child spans (children are sequential and nested, so that part is
the sum of the children's durations).
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Dict, Iterator, List


class Span:
    __slots__ = ("span_id", "parent", "trace", "layer", "name", "start_ns",
                 "end_ns", "attrs", "children")

    def __init__(self, span_id, parent, trace, layer, name, start_ns, attrs):
        self.span_id = span_id
        self.parent = parent
        self.trace = trace
        self.layer = layer
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.attrs = attrs
        self.children: List["Span"] = []

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_dict(self) -> Dict:
        return {
            "id": self.span_id,
            "parent": None if self.parent is None else self.parent.span_id,
            "trace": self.trace,
            "layer": self.layer,
            "name": self.name,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "attrs": self.attrs,
        }


class Tracer:
    """Records nested spans of one single-threaded program run."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)

    def _open(self, layer: str, name: str, start_ns: int, attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        trace = parent.trace if parent is not None else next(self._traces)
        span = Span(next(self._ids), parent, trace, layer, name, start_ns, attrs)
        if parent is not None:
            parent.children.append(span)
        self.spans.append(span)
        return span

    @contextmanager
    def span(self, layer: str, name: str, **attrs) -> Iterator[Span]:
        """Time the enclosed block as one span under the current span."""
        span = self._open(layer, name, perf_counter_ns(), attrs)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = perf_counter_ns()
            self._stack.pop()

    def derived(
        self, parent: Span, layer: str, name: str, start_ns: int,
        duration_ns: int, source: str,
    ) -> Span:
        """A span reconstructed from a program-side timer (e.g. BuildStats).

        The program times its own phases but exposes only durations, so
        the span is laid out from ``start_ns`` inside ``parent``.
        """
        self._stack.append(parent)
        try:
            span = self._open(layer, name, start_ns, {"derived_from": source})
        finally:
            self._stack.pop()
        span.end_ns = start_ns + max(0, int(duration_ns))
        return span

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span.to_dict() for span in self.spans], handle)


class NullTracer:
    """Same interface, records nothing: the untraced comparison pass."""

    enabled = False

    @contextmanager
    def span(self, layer: str, name: str, **attrs) -> Iterator[None]:
        yield None


def self_times(root: Span) -> Dict[str, int]:
    """Nanoseconds of self time per layer over ``root``'s subtree."""
    totals: Dict[str, int] = {}
    stack = [root]
    while stack:
        span = stack.pop()
        covered = sum(child.duration_ns for child in span.children)
        totals[span.layer] = totals.get(span.layer, 0) + max(
            0, span.duration_ns - covered
        )
        stack.extend(span.children)
    return totals


def find(root: Span, name: str) -> List[Span]:
    """Every span named ``name`` in ``root``'s subtree, in start order."""
    found = []
    stack = [root]
    while stack:
        span = stack.pop()
        if span.name == name:
            found.append(span)
        stack.extend(span.children)
    return sorted(found, key=lambda span: span.start_ns)


def coverage(root: Span) -> float:
    """Share of ``root``'s wall covered by its direct children."""
    if root.duration_ns <= 0:
        return 0.0
    return sum(child.duration_ns for child in root.children) / root.duration_ns


def mean_us(spans: List[Span]) -> float:
    if not spans:
        return 0.0
    return sum(span.duration_ns for span in spans) / len(spans) / 1000.0
