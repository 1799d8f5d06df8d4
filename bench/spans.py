"""Spans recorded by the benchmark around its own calls into ``qfraclab``.

A traced op is one span; every public call the op makes is a child span
with the op as parent.  Spans stay in memory and are written out once, when
the run ends.  Nothing inside the package is instrumented.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter

from ops import finite


class Tracer:
    """Collects spans ``(name, start, end, parent, op_id)`` and per-module error counts."""

    def __init__(self):
        self.spans = []
        self.raised = Counter()
        self.nonfinite = Counter()
        self._op_id = -1
        self._op_name = None
        self._exact = False

    def run_op(self, op, fn):
        """Run ``fn(self.call)`` as the span of ``op``; exceptions propagate."""
        self._op_id += 1
        self._op_name = f"op.{op.kind}"
        self._exact = op.exact
        start = perf_counter()
        try:
            return fn(self.call)
        finally:
            self.spans.append((self._op_name, start, perf_counter(), None, self._op_id))

    def call(self, name, fn, *args):
        if self._exact:
            name += ".exact"
        module = name.split(".", 1)[0]
        start = perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.spans.append((name, start, perf_counter(), self._op_name, self._op_id))
            self.raised[module] += 1
            raise
        self.spans.append((name, start, perf_counter(), self._op_name, self._op_id))
        if not finite(out):
            self.nonfinite[module] += 1
        return out

    def self_times(self) -> dict:
        """Self time of every span name: its duration minus its children's."""
        child = Counter()
        for _, start, end, parent, op_id in self.spans:
            if parent is not None:
                child[op_id] += end - start
        out = Counter()
        for name, start, end, parent, op_id in self.spans:
            out[name] += end - start - (child[op_id] if parent is None else 0.0)
        return out

    def layer_stats(self, names) -> dict:
        """``calls``, ``busy_s`` (self time) and ``p50_us`` for each span name in ``names``."""
        durations = {name: [] for name in names}
        for name, start, end, _, _ in self.spans:
            if name in durations:
                durations[name].append(end - start)
        busy = self.self_times()
        return {
            name: (len(d), busy[name], statistics.median(d) * 1e6 if d else 0.0)
            for name, d in durations.items()
        }

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top_id\n")
            for name, start, end, parent, op_id in self.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent or ''}\t{op_id}\n")
