"""In-memory call spans, recorded by wrapping functions from outside the program.

``Tracer.wrap(owner, attr, name)`` replaces ``owner.attr`` (a module-level
function or a method on a class) with a wrapper that records one span per
call: its name, start, end and the span open when it was called.  A function
imported under several names (``from ralp.bases import features`` in three
modules) is wrapped at each binding with the same span name.  ``restore``
puts every original attribute back.  Spans stay in memory until
``write_spans`` is called at the end of a run.

A span name is ``<layer>.<function>``; a layer's self time is the time its
spans cover minus the part covered by their child spans.
"""

from __future__ import annotations

import csv
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float = float("nan")

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans and counts for the wrapped call boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        span = Span(len(self.spans), self._open[-1] if self._open else None, name, self.clock())
        self.spans.append(span)
        self._open.append(span.id)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if not self._open or self._open[-1] != span.id:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._open.pop()

    def wrap(self, owner, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``observe(tracer, result, *args, **kwargs)`` runs after each call and
        records counts taken from the call's arguments and result.
        """
        original = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            tracer.counts[name + ".calls"] += 1
            if observe is not None:
                observe(tracer, result, *args, **kwargs)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["id", "parent", "name", "start", "end"])
            for s in self.spans:
                w.writerow([s.id, "" if s.parent is None else s.parent, s.name, repr(s.start), repr(s.end)])


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for s in spans:
        clipped = [(max(lo, s.start), min(hi, s.end)) for lo, hi in children.get(s.id, ())]
        out.append(s.duration - _union_length([(lo, hi) for lo, hi in clipped if hi > lo]))
    return out


def outermost_time(spans: list[Span], name: str, under: Optional[str] = None) -> float:
    """Total duration of the spans called ``name`` that have no ancestor of that name.

    With ``under``, only spans that have an ancestor called ``under`` count.
    """
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        nested = False
        inside = under is None
        p = s.parent
        while p is not None:
            anc = by_id[p]
            nested |= anc.name == name
            inside |= anc.name == under
            p = anc.parent
        if inside and not nested:
            total += s.duration
    return total


def layer_table(spans: list[Span]) -> list[dict]:
    """Self time and call count per layer and per span name, largest self time first."""
    selfs = self_times(spans)
    by_name: dict[str, dict] = {}
    for s, own in zip(spans, selfs):
        row = by_name.setdefault(s.name, {"layer": s.layer, "name": s.name, "calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    by_layer: dict[str, dict] = {}
    for row in by_name.values():
        lay = by_layer.setdefault(row["layer"], {"layer": row["layer"], "calls": 0, "self_s": 0.0, "names": []})
        lay["calls"] += row["calls"]
        lay["self_s"] += row["self_s"]
        lay["names"].append(row)
    layers = sorted(by_layer.values(), key=lambda r: -r["self_s"])
    for lay in layers:
        lay["names"].sort(key=lambda r: -r["self_s"])
    return layers
