"""In-memory spans and counters for the traced benchmark run.

A span records (name, start, end, parent span, item id).  Spans are kept in
memory and written once, when the run ends.  The part of the name before the
first dot is the layer: the package module whose public function the span
wraps, or ``bench`` for the benchmark's own item and replay roots.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: dict[str, int] = {}
        # one row per span: [name id, start, end, parent index or -1, item id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.item = None
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        nid = self.names.setdefault(name, len(self.names))
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, 0.0, 0.0, parent, self.item])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float) -> float:
        end = perf_counter()
        self._stack.pop()
        row = self.spans[index]
        row[1], row[2] = start, end
        return end - start

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, start)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span; returns its result."""
        return self.timed(name, fn, *args, **kwargs)[0]

    def timed(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; returns its result and the span's duration."""
        index = self._open(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self._close(index, start)
        return result, elapsed

    def count(self, name: str, n=1) -> None:
        self.counts[name] += n

    def summary(self):
        """Total and self seconds per span name, and per root name: the
        roots' summed duration and the self seconds of each layer inside
        them.

        Self time is a span's duration minus the part its direct children
        cover; spans of one thread nest, so children never overlap.  Items
        (``bench.item``), their replays (``bench.replay``) and cold geometry
        builds are separate roots, so item time holds no replay work.
        """
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        root_s: dict[str, float] = defaultdict(float)
        root_layers: dict[str, dict] = defaultdict(lambda: defaultdict(float))
        child_cover = [0.0] * len(self.spans)
        root = list(range(len(self.spans)))
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            if parent >= 0:
                child_cover[parent] += end - start
                root[i] = root[parent]
        by_id = {v: k for k, v in self.names.items()}
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            name = by_id[nid]
            own = end - start - child_cover[i]
            total[name] += end - start
            self_s[name] += own
            root_name = by_id[self.spans[root[i]][0]]
            root_layers[root_name][name.split(".", 1)[0]] += own
            if parent < 0:
                root_s[name] += end - start
        return dict(total), dict(self_s), dict(root_s), root_layers

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "names": sorted(self.names, key=self.names.get),
                       "spans": self.spans}, fh, separators=(",", ":"))
