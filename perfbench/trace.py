"""In-memory spans around the benchmark's calls into crownkit.

A span records a name, its start and end on the perf_counter clock, the
index of the enclosing span (-1 at top level) and the case id.  Spans stay
in memory until the run ends; `dump` writes them out.  Self time is a
span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext


class _Span:
    __slots__ = ("tracer", "index")

    def __init__(self, tracer, index):
        self.tracer = tracer
        self.index = index

    def __enter__(self):
        self.tracer.spans[self.index][1] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.spans[self.index][2] = time.perf_counter()
        self.tracer.stack.pop()
        return False


class Tracer:
    """Collects spans; `span(name)` is a context manager."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent, case]
        self.stack = []
        self.case = None

    def span(self, name: str) -> _Span:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.case])
        index = len(self.spans) - 1
        self.stack.append(index)
        return _Span(self, index)

    def self_times(self) -> dict[str, list[float]]:
        """Self time of every span, grouped by name."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(list)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name].append(end - start - child_time[i])
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        keys = ("name", "start", "end", "parent", "case")
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "spans": [dict(zip(keys, s)) for s in self.spans]},
                      fh)


class NullTracer:
    """Tracing off: spans cost one call and record nothing."""

    case = None
    _null = nullcontext()

    def span(self, name: str):
        return self._null


def span_cost_s() -> float:
    """Mean cost of opening and closing one empty span, over 20 000."""
    tracer = Tracer()
    t0 = time.perf_counter()
    for _ in range(20000):
        with tracer.span("probe"):
            pass
    return (time.perf_counter() - t0) / 20000
