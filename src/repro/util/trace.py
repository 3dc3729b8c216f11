"""Bounded event tracing for debugging simulated runs.

The simulator can record a ring buffer of (time, rank, kind, detail) events.
Tracing is off by default (zero overhead beyond a predicate check) and is
mainly used by tests asserting determinism: two runs with the same seed must
produce byte-identical traces.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded simulator event."""

    time: float
    rank: int
    kind: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.time * 1e6:12.3f}us r{self.rank:<4d}] {self.kind}: {self.detail}"


class TraceBuffer:
    """A bounded in-memory trace.

    ``capacity=None`` keeps everything (tests); a finite capacity keeps the
    most recent events (debugging long runs).
    """

    def __init__(self, capacity: Optional[int] = None, enabled: bool = True):
        self.enabled = enabled
        self._events: deque = deque(maxlen=capacity)

    def record(self, time: float, rank: int, kind: str, detail: str = "") -> None:
        if self.enabled:
            self._events.append(TraceEvent(time, rank, kind, detail))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        self._events.clear()

    def fingerprint(self) -> int:
        """Order-sensitive hash of the whole trace (determinism checks)."""
        acc = 0
        for ev in self._events:
            acc = hash((acc, round(ev.time, 12), ev.rank, ev.kind, ev.detail))
        return acc

    def canonical_events(self) -> list:
        """Events stably sorted by ``(time, rank)``.

        Within one rank, records are appended in that rank's execution
        order; *across* ranks the interleaving at equal timestamps is the
        scheduler's internal dispatch order, which is not part of the
        simulated result.  The canonical order — stable sort by (time,
        rank), preserving each rank's own subsequence — depends only on
        what each rank did, and is what the golden trace digest hashes.
        """
        return sorted(self._events, key=lambda ev: (ev.time, ev.rank))

    def canonical_fingerprint(self) -> int:
        """Order-sensitive hash of the canonical trace."""
        acc = 0
        for ev in self.canonical_events():
            acc = hash((acc, round(ev.time, 12), ev.rank, ev.kind, ev.detail))
        return acc

    def dump(self, limit: Optional[int] = None) -> str:
        events = list(self._events)
        if limit is not None:
            events = events[-limit:]
        return "\n".join(str(e) for e in events)
