"""Bounded event tracing for debugging simulated runs.

The simulator can record (time, rank, kind, detail) events: the scheduler
its blocks and resumes, each rank's progress engine (the buffer is its
sink) its polled active messages and executed compQ items.
Tracing is off unless a buffer is passed (``Scheduler.trace`` is ``None``
otherwise) and is mainly used by tests asserting determinism: two runs
with the same seed must produce the same :meth:`TraceBuffer.digest`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterator

from repro.util.sink import Sink


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulator event."""

    time: float
    rank: int
    kind: str
    detail: str


class TraceBuffer(Sink):
    """An in-memory trace of every recorded event.

    The buffer is also every rank's progress-engine sink: ``am`` per polled
    active message (its tag), ``exec`` per executed compQ item (its kind).
    """

    def __init__(self):
        self._events: list = []

    def rank(self, r: int) -> "TraceBuffer":
        """Rank ``r``'s sink: the buffer itself (it reads the rank off the runtime)."""
        return self

    def poll(self, rt, msg, now: float) -> None:
        self.record(now, rt.rank, "am", msg.tag)

    def execute(self, rt, item, now: float) -> None:
        self.record(now, rt.rank, "exec", item.kind)

    def record(self, time: float, rank: int, kind: str, detail: str = "") -> None:
        self._events.append(TraceEvent(time, rank, kind, detail))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def canonical_events(self) -> list:
        """Events stably sorted by ``(time, rank)``.

        Within one rank, records are appended in that rank's execution
        order; *across* ranks the interleaving at equal timestamps is the
        scheduler's internal dispatch order, which is not part of the
        simulated result.  The canonical order — stable sort by (time,
        rank), preserving each rank's own subsequence — depends only on
        what each rank did, and is what :meth:`digest` hashes.
        """
        return sorted(self._events, key=lambda ev: (ev.time, ev.rank))

    def digest(self) -> str:
        """sha256 (hex) of the canonical events: the same in every process,
        whatever ``PYTHONHASHSEED`` says (determinism checks, golden file)."""
        h = hashlib.sha256()
        for ev in self.canonical_events():
            h.update(repr((round(ev.time, 12), ev.rank, ev.kind, ev.detail)).encode())
        return h.hexdigest()
