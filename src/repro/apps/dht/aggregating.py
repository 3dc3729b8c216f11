"""Message-aggregating DHT updates (the HipMer optimization).

The paper's DHT benchmark blocks per insert to expose latency; real
latency-bound applications (the genome assembler of [13]) instead
*aggregate*: updates are buffered per destination rank and shipped as one
RPC per full buffer, converting a latency-bound workload into an
injection-rate-bound one.

Historically this module carried its own batching implementation; that
machinery now lives in the runtime proper as
:class:`repro.upcxx.aggregator.AggStore` (destination batching, pluggable
combines, credit flow control, counting quiescence, hot-key caching).
:class:`AggregatingCounter` remains as a thin compatibility shim: an
``AggStore`` with the additive combine and none of the optional layers,
preserving the original wire pattern — one ``rpc_ff`` per full buffer
carrying two parallel int64 arrays, ``map_insert`` charged per update at
the target.  ``sync()`` now uses the aggregator's counting-based
termination detection (one all-reduce of per-destination sent counts plus
a local wait) instead of the old repeated all-reduce polling loop.
"""

from __future__ import annotations

from typing import Dict, Optional

import repro.upcxx as upcxx
from repro.upcxx.aggregator import AggStore

__all__ = ["AggregatingCounter"]


class AggregatingCounter:
    """A distributed counting table with per-destination update batching."""

    def __init__(self, batch_size: int = 64, team: Optional[upcxx.Team] = None):
        self._store = AggStore("+", batch_size=batch_size, team=team)
        self.team = self._store.team
        self.batch_size = batch_size

    # ---------------------------------------------------------------- update
    def add(self, key: int, delta: int = 1) -> None:
        """Buffer one update; flushes the destination's buffer when full."""
        self._store.update(key, delta)

    @property
    def batches_sent(self) -> int:
        return self._store.batches_sent

    # ------------------------------------------------------------ quiescence
    def sync(self) -> None:
        """Global quiescence: all updates sent anywhere are applied."""
        self._store.quiesce()

    # --------------------------------------------------------------- queries
    def count(self, key: int) -> upcxx.Future:
        """Asynchronous lookup of a key's global count (after sync())."""
        return self._store.read(key, default=0)

    def local_items(self) -> Dict[int, int]:
        return self._store.local_items()
