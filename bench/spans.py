"""In-memory span tracing installed around triqi's layer functions.

A traced pass replaces each layer function, wherever a triqi module binds it,
with a wrapper that records one span per call: name, start, end, parent span
and point id.  Nothing inside ``src/`` is edited; the wrappers are removed when
the pass ends.  Spans stay in memory and are written once, at the end of a run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    point: str


class Tracer:
    """Collects spans and per-layer counters for the calls it wraps.

    Single-threaded: the parent of a span is whatever span is open when the
    call starts.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.point = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``count``, if given, maps ``(name, result)`` to a ``(counter, value)``
        pair that is added to :attr:`counters` after each call.
        """
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(sid, name, start, end, parent, self.point)
            if count is not None:
                key, value = count(result)
                counters[key] += value
            return result

        return traced

    def write(self, path) -> None:
        """Write every span with its self time as CSV."""
        selfs = self_times(self.spans)
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,point,self\n")
            for s in self.spans:
                fh.write(f"{s.id},{s.name},{s.start!r},{s.end!r},{s.parent},{s.point},"
                         f"{selfs[s.id]!r}\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - _covered(children[s.id], s.start, s.end)
            for s in spans}


def layer_summary(spans: list[Span], names, passes: int) -> dict[str, tuple[float, float]]:
    """Per span name: (mean self time per call, calls per pass)."""
    selfs = self_times(spans)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        total[s.name] += selfs[s.id]
        calls[s.name] += 1
    return {n: (total[n] / calls[n] if calls[n] else 0.0, calls[n] / passes) for n in names}


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap each target for the duration of the block.

    ``targets`` holds ``(name, owner, attr, count)`` tuples.  A class owner has
    its attribute replaced; for a module owner, every ``triqi`` module that
    binds the same function object (``from .x import f``) is patched too.
    """
    saved = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "triqi" or n.startswith("triqi."))]
    try:
        for name, owner, attr, count in targets:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, count)
            holders = [owner] if isinstance(owner, type) else \
                [m for m in modules if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        saved.append((holder, key, original))
        yield tracer
    finally:
        for holder, key, original in reversed(saved):
            setattr(holder, key, original)
