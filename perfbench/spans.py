"""A stdlib span recorder for the benchmark's traced runs.

Spans are recorded from outside the program, around calls into its
public entry points.  Each span keeps its name, ``perf_counter`` start
and end, its parent (carried through :mod:`contextvars`, so nesting
follows the call stack), and the id of the operation it belongs to:
every span opened while one benchmark op or serve request runs shares
that op's id.  Spans stay in memory until :meth:`SpanRecorder.write_jsonl`.
"""

from __future__ import annotations

import contextvars
import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


@dataclass
class Span:
    """One timed interval; ``end`` is ``None`` while the span is open."""

    span_id: int
    name: str
    op_id: int
    parent_id: Optional[int]
    start: float
    end: Optional[float] = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "op": self.op_id,
            "parent": self.parent_id,
            "start": self.start,
            "end": self.end,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cursor = lo
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


class SpanRecorder:
    """In-memory span store with op ids and parent links."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._current: contextvars.ContextVar[Optional[Span]] = (
            contextvars.ContextVar("perfbench_span", default=None)
        )
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        return self._next_op

    @contextmanager
    def span(self, name: str, op_id: Optional[int] = None,
             **attrs) -> Iterator[Span]:
        parent = self._current.get()
        if op_id is None:
            op_id = parent.op_id if parent is not None else self.new_op()
        record = Span(
            span_id=len(self.spans) + 1,
            name=name,
            op_id=op_id,
            parent_id=parent.span_id if parent is not None else None,
            start=self.clock(),
            attrs=dict(attrs),
        )
        self.spans.append(record)
        token = self._current.set(record)
        try:
            yield record
        finally:
            record.end = self.clock()
            self._current.reset(token)

    def wrap(self, fn: Callable, name: str,
             attrs: Optional[Callable[..., dict]] = None) -> Callable:
        """``fn`` wrapped in a span; ``attrs(result, *args, **kw)`` tags it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    record.attrs.update(attrs(result, *args, **kwargs))
                return result

        return traced

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the part its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for span in self.spans:
            if span.parent_id is not None and span.end is not None:
                children[span.parent_id].append((span.start, span.end))
        return {
            span.span_id: span.duration - covered(
                children.get(span.span_id, []), span.start,
                span.end if span.end is not None else span.start,
            )
            for span in self.spans
        }

    def per_op(self, op_id: int) -> dict[str, dict[str, float]]:
        """Name -> {calls, total_s, self_s} over the spans of one op."""
        selfs = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            if span.op_id != op_id:
                continue
            row = out.setdefault(
                span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["total_s"] += span.duration
            row["self_s"] += selfs[span.span_id]
        return out

    def summary(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total s, self s) per span name, by total time."""
        selfs = self.self_times()
        rows: dict[str, list] = {}
        for span in self.spans:
            row = rows.setdefault(span.name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += span.duration
            row[2] += selfs[span.span_id]
        return sorted(
            ((name, calls, total, own)
             for name, (calls, total, own) in rows.items()),
            key=lambda row: -row[2],
        )

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")
