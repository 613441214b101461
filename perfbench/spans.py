"""Span recording from outside the program, and the math over spans.

Nothing here imports the program under test.  :class:`Recorder` keeps
one :class:`Span` per wrapped call in memory; :func:`wrap_method` and
:func:`wrap_generator_method` patch a class attribute so every call (or
every ``next()`` of a returned generator) is recorded, and hand back an
undo function.  The benchmark installs the wrappers only for traced
rounds, so untraced rounds run the program's own code untouched.

Parents come from a per-thread stack: a span opened while another is
open on the same thread is its child.  Work handed to another thread
(the serving layer's job threads) starts a new root there; the
operation id set by the client ties all spans of one request together.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One recorded call: name, interval, causing span and request."""

    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    #: The client operation this span served (set by the driver).
    op: object = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "attrs": self.attrs,
        }


class Recorder:
    """In-memory span store with per-thread nesting."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        record = Span(
            id=next(self._ids),
            name=name,
            start=0.0,
            parent=stack[-1] if stack else None,
            op=self.op,
            attrs=dict(attrs),
        )
        stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def add(self, name: str, start: float, end: float, **attrs) -> Span:
        """Record an interval measured elsewhere (e.g. a future's life)."""
        record = Span(id=next(self._ids), name=name, start=start, end=end,
                      op=self.op, attrs=dict(attrs))
        self.spans.append(record)
        return record


def _restore(cls, attr: str, original) -> None:
    if original is None:
        delattr(cls, attr)
    else:
        setattr(cls, attr, original)


def wrap_method(recorder: Recorder, cls, attr: str, name: str,
                on_result=None):
    """Record a span around every call of ``cls.attr``.

    ``on_result(span, args, kwargs, result)`` may add counts to the
    span's ``attrs``.  Returns a function that restores the class (an
    inherited method is restored by deleting the override).
    """
    own = cls.__dict__.get(attr)
    target = getattr(cls, attr)

    @functools.wraps(target)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as record:
            result = target(*args, **kwargs)
            if on_result is not None:
                on_result(record, args, kwargs, result)
        return result

    setattr(cls, attr, wrapper)
    return lambda: _restore(cls, attr, own)


def wrap_generator_method(recorder: Recorder, cls, attr: str, name: str,
                          on_item=None):
    """Record one span per ``next()`` of the generator ``cls.attr`` returns.

    The span times the producer only: it is closed before the item is
    handed to the consumer, so work the consumer does between items
    lands in the consumer's spans.  ``on_item(span, item)`` may add
    counts.
    """
    own = cls.__dict__.get(attr)
    target = getattr(cls, attr)

    @functools.wraps(target)
    def wrapper(*args, **kwargs):
        inner = iter(target(*args, **kwargs))
        while True:
            with recorder.span(name) as record:
                try:
                    item = next(inner)
                except StopIteration:
                    return
                if on_item is not None:
                    on_item(record, item)
            yield item

    setattr(cls, attr, wrapper)
    return lambda: _restore(cls, attr, own)


# ----------------------------------------------------------------------
# Span math
# ----------------------------------------------------------------------
def covered(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, lo), min(end, hi)) for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cur_start = cur_end = None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    """Span id → the spans it directly caused."""
    out: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            out.setdefault(span.parent, []).append(span)
    return out


def self_time(span: Span, children: dict[int, list[Span]],
              only=None) -> float:
    """The span's duration minus the part its child spans cover.

    ``only(child) -> bool`` restricts which children are subtracted.
    """
    kids = [c for c in children.get(span.id, ()) if only is None or only(c)]
    return span.duration - covered(
        [(c.start, c.end) for c in kids], span.start, span.end)


def coverage(span: Span, children: dict[int, list[Span]]) -> float:
    """Share of the span's wall time covered by its child spans."""
    if span.duration <= 0:
        return 0.0
    kids = children.get(span.id, ())
    return covered([(c.start, c.end) for c in kids],
                   span.start, span.end) / span.duration


def outermost(spans: list[Span], names) -> list[Span]:
    """Spans named in ``names`` that have no ancestor also in ``names``.

    Summing their durations counts a re-entrant or self-nesting layer
    once.
    """
    names = set(names)
    by_id = {s.id: s for s in spans}
    out = []
    for span in spans:
        if span.name not in names:
            continue
        parent = by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(span)
    return out


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


#: Samples a tail percentile must leave above it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With ``n`` samples sorted
    ascending, the sample with exactly ten above it is the
    ``(n - 10)``-th, i.e. the ``100·(n-10)/n`` percentile.  With ten
    samples or fewer no percentile qualifies; the maximum is reported
    with percentile 100, so a caller can tell the two apart.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank of the sample
    return float(ordered[rank - 1]), 100.0 * rank / n, n
