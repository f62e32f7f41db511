"""In-memory spans around the benchmark's calls into ffyb.

A span has a name ``<layer>.<function>``, start and end times, the index of
the span that was open when it started, the job it belongs to and an
optional work count (matrices, points or subsets the call covers).  Spans
stay in memory and are written out once, when the pass ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import nullcontext

_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1] if stack else None
        stack.append(len(self.tracer.spans))
        self.tracer.spans.append(self.record)
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Collects spans when enabled; otherwise every span is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, job, work: int = 0):
        if not self.enabled:
            return _OFF
        return _Span(self, {"name": name, "job": job, "work": work})

    def names(self) -> set[str]:
        return {s["name"] for s in self.spans}

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def work(self, name: str) -> int:
        return sum(s["work"] for s in self.spans if s["name"] == name)

    def self_time_by_layer(self) -> dict[str, float]:
        """Each layer's span time minus the part covered by child spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            out[s["name"].split(".")[0]] += s["end"] - s["start"] - child[i]
        return dict(out)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans}, fh)
