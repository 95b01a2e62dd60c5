"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer, recorded from the benchmark's own code:
its name, start and end (``perf_counter`` seconds), the span that
caused it and the op it belongs to.  Spans stay in memory while the run
measures and are written out only when it ends.  A span's *self time*
is its duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    op: int | None
    parent: int | None
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Records the spans of one thread; a span opened inside another is
    its child and inherits its op."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int | None = None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = self.spans[parent].op
        record = Span(name, op, parent)
        self._open.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the union of its children's intervals."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        return [
            span.duration - _covered(span.start, span.end, children[index])
            for index, span in enumerate(self.spans)
        ]

    def to_json(self) -> list[dict]:
        return [
            {
                "name": span.name,
                "op": span.op,
                "parent": span.parent,
                "start": span.start,
                "end": span.end,
                "self": self_s,
            }
            for span, self_s in zip(self.spans, self.self_times())
        ]


def _covered(start: float, end: float, children: list[Span]) -> float:
    """Length of ``[start, end]`` covered by the children's intervals."""
    total = 0.0
    cursor = start
    for child in sorted(children, key=lambda s: s.start):
        lo, hi = max(child.start, cursor), min(child.end, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


class _Off:
    """The untraced stand-in: every span is a no-op context."""

    def span(self, name: str, op: int | None = None):
        return nullcontext()


OFF = _Off()
