"""Spans around calls into chemofluid, recorded from outside the package.

A span is (id, parent id, name, start, end); all spans of one invocation live
in one Tracer and so share its invocation id. Spans stay in memory until the
invocation ends. A span's self time is its duration minus the time its
direct children cover; calls are sequential, so that is the sum of the
children's durations.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self, invocation: int = 0):
        self.invocation = invocation
        self.spans: list[tuple] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn, observe=None):
        """fn recording one span per call; observe(args, kwargs, result) runs after."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(None)
            self._open.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[sid] = (sid, parent, name, start, end)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced


def span_stats(spans) -> dict:
    """Per span name: calls, busy seconds and self seconds.

    Busy time counts only the outermost span of a name, so a function that
    re-enters itself is not counted twice.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for sid, parent, name, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {}
    for sid, parent, name, start, end in spans:
        st = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (end - start) - child_time[sid]
        p = parent
        while p is not None and by_id[p][2] != name:
            p = by_id[p][1]
        if p is None:
            st["busy_s"] += end - start
    return stats


def layer_self_time(stats: dict, layer: str) -> float:
    """Self seconds of every span in a layer (names are "<layer>.<what>")."""
    return sum(st["self_s"] for name, st in stats.items() if name.split(".", 1)[0] == layer)
