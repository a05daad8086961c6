"""In-memory span recording for the benchmark's traced run.

A span is (id, name, start, end, parent, pass). Spans are opened around the
benchmark's own calls into the package, never inside it. A disabled tracer
records nothing and adds one attribute test per call, so the untraced run
and the traced run execute the same benchmark code.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from time import perf_counter


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    __slots__ = ("tracer", "name", "sid", "parent", "t0")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.sid = len(tr.spans)
        self.parent = tr._stack[-1]
        tr.spans.append(None)           # reserve the id; filled on exit
        tr._stack.append(self.sid)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr = self.tracer
        tr._stack.pop()
        tr.spans[self.sid] = (self.sid, self.name, self.t0, t1, self.parent, tr.pass_id)
        return False


class Tracer:
    """Collects spans while enabled; a disabled tracer is a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans = []
        self.pass_id = 0
        self._stack = [None]

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL_SPAN

    def call(self, name: str, fn, *args, **kwargs):
        """Call *fn* inside a span named *name* (a plain call when disabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with _Span(self, name):
            return fn(*args, **kwargs)

    def leaf(self, name: str, t0: float, t1: float) -> None:
        """Record a childless span timed by the caller (per-token classify)."""
        sid = len(self.spans)
        self.spans.append((sid, name, t0, t1, self._stack[-1], self.pass_id))

    # -- summaries -----------------------------------------------------------

    def self_times(self) -> list:
        """Per span: duration minus the summed durations of its direct children."""
        child = [0.0] * len(self.spans)
        for sid, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [(t1 - t0) - child[sid] for sid, _, t0, t1, _, _ in self.spans]

    def per_pass(self) -> dict:
        """{pass: {name: [total seconds, self seconds, count]}}."""
        selfs = self.self_times()
        out = defaultdict(lambda: defaultdict(lambda: [0.0, 0.0, 0]))
        for (sid, name, t0, t1, _, pid), st in zip(self.spans, selfs):
            row = out[pid][name]
            row[0] += t1 - t0
            row[1] += st
            row[2] += 1
        return out

    def durations(self, name: str) -> list:
        """(pass, seconds) of every span named *name*."""
        return [(pid, t1 - t0) for _, n, t0, t1, _, pid in self.spans if n == name]

    def write(self, path: str) -> None:
        """One JSON line per span: id, name, start, end, parent, pass, self."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for (sid, name, t0, t1, parent, pid), st in zip(self.spans, selfs):
                fh.write(json.dumps([sid, name, t0, t1, parent, pid, st],
                                    separators=(",", ":")) + "\n")


def median_over(passes: dict, pass_ids, name: str, field: int) -> float:
    """Median across *pass_ids* of one span name's per-pass total or self time.

    A pass in which the name never ran contributes 0.
    """
    vals = [passes[p][name][field] if name in passes.get(p, {}) else 0.0
            for p in pass_ids]
    return statistics.median(vals) if vals else 0.0
