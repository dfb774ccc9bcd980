"""In-memory spans around the benchmark's calls into each layer.

A span is (name, start, end, parent, request): ``name`` is
``<module>.<function>[.<class>]`` for a layer call and ``request.<kind>`` for
the request that caused it; ``parent`` indexes the enclosing span.  Spans
are kept in a list and written out once, after the run.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter


class NullTracer:
    """Untraced mode: the call goes straight through."""

    request = 0

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.request)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "request")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def summarize(spans) -> tuple[dict, dict, float]:
    """Per span name: calls, busy seconds and median milliseconds; per layer
    (the name's first component): self seconds, i.e. span time not covered
    by child spans.  Also returns the total request time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    durations: dict[str, list[float]] = {}
    layer_self: dict[str, float] = {}
    requests = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        took = end - start
        durations.setdefault(name, []).append(took)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + took - child_time[i]
        if parent is None:
            requests += took
    per_name = {
        name: {
            "calls": len(ds),
            "busy_s": sum(ds),
            "p50_ms": statistics.median(ds) * 1000,
        }
        for name, ds in durations.items()
    }
    return per_name, layer_self, requests
