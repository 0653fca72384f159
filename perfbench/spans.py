"""In-memory spans around the benchmark's own calls into the library.

A span records (name, start, end, parent span, op id).  Spans are kept
in memory and written out once, when the run ends.  A layer's self time
is its span's duration minus the time its direct child spans cover.
Counters sit beside the spans for work that is computed from input and
output sizes rather than timed; `shapes` counts calls by a hashable key
that a layer turns into such counts when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Records one span per `call` and keeps named counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self.shapes: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def call(self, name, fn, *args):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.op)

    def count(self, name, value=1):
        self.counters[name] += value

    def self_times(self) -> tuple[dict, Counter]:
        """Total self time and number of spans, by span name."""
        child_time = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        seconds: dict = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, t0, t1, _, _) in enumerate(self.spans):
            seconds[name] += (t1 - t0) - child_time[idx]
            calls[name] += 1
        return seconds, calls

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "fields": ["name", "start", "end", "parent", "op"],
                "names": names,
                "spans": [[index[n], t0, t1, p, op] for n, t0, t1, p, op in self.spans],
                "counters": dict(self.counters),
            }, fh)
