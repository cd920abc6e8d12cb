"""In-memory spans recorded by the benchmark around each call into a layer.

The benchmark times every layer from outside: each public call it makes
(``open_corpus(...).resolve``, ``BatchPredictor.fit_story``, a daemon
round trip, ...) is wrapped in a span.  Spans stay in memory while the run
measures and are written out as JSON lines when it ends; a layer's *self
time* is its span's duration minus the part of that interval its child
spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: "int | None"
    start: float
    end: float = 0.0
    attributes: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans of one benchmark run; every span shares one trace id."""

    def __init__(self, trace_id: str) -> None:
        self.trace_id = trace_id
        self.spans: "list[Span]" = []
        self._ids = itertools.count(1)

    @contextlib.contextmanager
    def span(self, name: str, parent: "Span | None" = None, **attributes):
        record = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            start=time.perf_counter(),
            attributes=attributes,
        )
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.spans.append(record)

    def record(
        self, name: str, start: float, duration: float, parent: "Span | None" = None, **attributes
    ) -> Span:
        """Add a span measured elsewhere (e.g. a phase reported by the program)."""
        record = Span(
            name=name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent is not None else None,
            start=start,
            end=start + duration,
            attributes=attributes,
        )
        self.spans.append(record)
        return record

    def self_time(self, span: Span) -> float:
        """Duration minus the union of the intervals its children cover."""
        children = sorted(
            (max(child.start, span.start), min(child.end, span.end))
            for child in self.spans
            if child.parent_id == span.span_id
        )
        covered, reach = 0.0, span.start
        for start, end in children:
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        return span.duration - covered

    def self_seconds(self, name: str) -> float:
        return sum(self.self_time(span) for span in self.spans if span.name == name)

    def total_seconds(self, name: str) -> float:
        return sum(span.duration for span in self.spans if span.name == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "trace": self.trace_id,
                            "span": span.span_id,
                            "parent": span.parent_id,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "self": self.self_time(span),
                            "attributes": span.attributes,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
