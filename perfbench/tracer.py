"""In-memory spans for the traced replay, and the per-layer figures they give.

A span has a name, a start, an end and the span that was open when it
started.  Spans stay in memory while the replay runs and are written out
once, when the run ends.  A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter_ns


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.parents.append(t.stack[-1])
        t.ends.append(0)
        t.stack.append(self.index)
        t.starts.append(perf_counter_ns())

    def __exit__(self, *exc):
        t = self.tracer
        t.ends[self.index] = perf_counter_ns()
        t.stack.pop()


class Tracer:
    """Collects spans and plain counters; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack = [-1]
        self.counts: Counter[str] = Counter()

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def calls(self) -> Counter[str]:
        return Counter(self.names)

    def self_seconds(self) -> dict[str, float]:
        """Self time per span name, in seconds."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        out: dict[str, float] = {}
        for name, ns in zip(self.names, own):
            out[name] = out.get(name, 0.0) + ns / 1e9
        return out

    def write(self, path) -> None:
        """Gzipped JSON lines: a header, then [id, parent, name, start_ns, end_ns]."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write(json.dumps({"fields": ["id", "parent", "name", "start_ns", "end_ns"]}) + "\n")
            for index, name in enumerate(self.names):
                handle.write(
                    json.dumps([index, self.parents[index], name, self.starts[index], self.ends[index]])
                    + "\n"
                )
