"""Time-ordered event queue with deterministic tie-breaking.

Events are ``(time, seq, callback)`` triples kept in a binary heap.  ``seq``
is a monotonically increasing insertion counter, so two events scheduled for
the same instant always fire in the order they were posted — the property
that makes whole-simulation runs reproducible.  The scheduler
(:mod:`repro.sim.coop`) keeps its own entries in the same heap list —
``(time, causal stamp, callback, target)`` — and uses this class for the
list and its counters only.

Event callbacks are *network context*: they run with the scheduler lock held
and must be cheap and non-blocking (deliver a message to an inbox, fulfill a
handle, wake a rank).  They must never invoke user code directly.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

_INF = float("inf")


class EventQueue:
    """A deterministic priority queue of timestamped callbacks."""

    __slots__ = ("_heap", "_seq", "_count_posted", "_count_fired")

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._count_posted = 0
        self._count_fired = 0

    def push(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` to fire at simulated ``time``."""
        if time != time or time < 0 or time == _INF:  # NaN, negative, or inf
            raise ValueError(f"invalid event time: {time!r}")
        if not callable(fn):
            raise TypeError(f"event callback must be callable, got {type(fn).__name__}")
        heapq.heappush(self._heap, (time, self._seq, fn))
        self._seq += 1
        self._count_posted += 1

    def peek_time(self) -> Optional[float]:
        """Timestamp of the earliest pending event, or ``None`` if empty."""
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self):
        """Remove and return ``(time, fn)`` for the earliest event."""
        time, _seq, fn = heapq.heappop(self._heap)
        self._count_fired += 1
        return time, fn

    def account_fired(self, n: int) -> None:
        """Batched-drain accounting: credit ``n`` events popped directly.

        Schedulers that drain ``_heap`` in a tight loop (popping entries
        without calling :meth:`pop`) flush their fired-count once per batch
        through this method so :attr:`stats` stays accurate.
        """
        self._count_fired += n

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def stats(self) -> dict:
        """Lifetime counters, for tests and diagnostics."""
        return {
            "posted": self._count_posted,
            "fired": self._count_fired,
            "pending": len(self._heap),
        }
