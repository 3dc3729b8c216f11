"""Causal span tracing for simulated runs (observability layer).

A *span* is one phase of one operation's lifecycle, tagged with a
correlation id that threads the whole chain together: for an ``rput``,
``inject_sw`` (API call + defQ dwell) → ``nic_wait`` (backpressure) →
``nic_occ`` (injection occupancy) → ``wire`` (propagation) →
``ack_wire`` (remote commit acknowledgment) → ``compq`` (staged,
waiting for user progress — the attentiveness gap) → ``exec_sw``
(promise fulfillment).  RPCs add the target-side ``inbox`` dwell and
dispatch phases, and their replies are child operations linked to the
request via ``parent``.

Design rules (shared with :class:`repro.util.metrics.Metrics`):

- **Passive.**  Recording never reads a clock, posts an event, or
  charges CPU time; all times arrive as explicit arguments.  Enabling
  spans therefore cannot perturb a single simulated timestamp.
- **Off by default.**  When no buffer is installed the instrumented
  layers skip every hook behind one ``is not None`` check.
- **Deterministic.**  Correlation ids are ``(initiator_rank, seq)``
  with a per-rank counter, records are plain tuples, and the canonical
  order (stable sort by ``(t0, t1, rank, sid, phase)``) depends only on
  what each rank did, exactly like
  :meth:`repro.util.trace.TraceBuffer.canonical_events`.
  :meth:`SpanBuffer.fingerprint` is a content hash of that canonical
  stream — pinned per program by ``tests/golden/fingerprints.json`` and
  process-stable (no dependence on ``PYTHONHASHSEED``).

A record is the tuple ``(t0, t1, rank, sid, phase, kind, nbytes,
parent)``:

========  ==========================================================
field     meaning
========  ==========================================================
t0, t1    simulated start/end of the phase (seconds); ``t0 <= t1``
rank      the rank whose resource/context the phase describes
sid       operation correlation id ``(initiator_rank, seq)``
phase     lifecycle phase name (see :data:`PHASES`)
kind      operation family ("rput", "rpc", ...) — display only
nbytes    payload size the phase moved/served (0 if n/a)
parent    ``sid`` of the causally-parent operation, or ``None``
========  ==========================================================
"""

from __future__ import annotations

import hashlib
from typing import Iterator, List, Optional, Tuple

#: every phase the instrumented layers emit, with the attribution
#: category the critical-path report folds it into
PHASES = {
    # initiator software: API overhead, defQ dwell, injection charges
    "inject_sw": "software",
    # completion software: compQ execution (promise fulfillment, RPC
    # dispatch + body, reply deserialization)
    "exec_sw": "software",
    # NIC queueing behind earlier injections (source or target NIC)
    "nic_wait": "backpressure",
    "remote_nic_wait": "backpressure",
    # NIC injection occupancy (bytes streaming onto the wire)
    "nic_occ": "occupancy",
    "remote_occ": "occupancy",
    # propagation latency legs
    "wire": "wire",
    "wire_back": "wire",
    "ack_wire": "wire",
    # waiting on the *target's* or initiator's progress engine
    "inbox": "attentiveness",
    "compq": "attentiveness",
    # reliability layer: retransmission attempts (fault injection);
    # one span per re-sent frame, [backoff fire, re-injection done]
    "retry": "retry",
    # aggregation layer (repro.upcxx.aggregator): sender stalled on
    # per-peer flow-control credits [stall begin, credit returned]
    "credit_wait": "backpressure",
    # hot-key read served from the local cache (the map_lookup charge)
    "cache_hit": "cache",
    # hot-key miss that joined a read-through already in flight (same
    # probe charge, no second RPC)
    "fill_share": "cache",
    # replication layer: rank-death exclusion handler (cache purge,
    # credit restoration, read failover, write settlement)
    "death_exclude": "recovery",
    # stage-1 re-replication ship [issue, recruit's ack] restoring the
    # replication factor after a detected death
    "rereplicate": "recovery",
    # drain-time replace-sync sweep making every replica exact
    "anti_entropy": "recovery",
}

SpanRecord = Tuple[float, float, int, tuple, str, str, int, Optional[tuple]]

#: canonical sort key — independent of cross-rank interleaving for the
#: same reason as TraceBuffer: a rank's own records are appended in its
#: execution order, and the key is unique per record (one op never
#: emits the same phase twice at identical times on one rank)
def _canon_key(r: SpanRecord):
    return (r[0], r[1], r[2], r[3], r[4])


class SpanBuffer:
    """Append-only buffer of causal span records.

    Pass one to ``upcxx.run_spmd(spans=...)``; render with
    ``python -m repro.tools.report`` or export to Perfetto via
    :func:`repro.util.trace_export.chrome_trace_span_events`.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._records: List[SpanRecord] = []

    # ------------------------------------------------------------ recording
    def record(
        self,
        t0: float,
        t1: float,
        rank: int,
        sid: tuple,
        phase: str,
        kind: str,
        nbytes: int = 0,
        parent: Optional[tuple] = None,
    ) -> None:
        """Record one phase (any context; times are explicit arguments)."""
        self._records.append((t0, t1, rank, sid, phase, kind, nbytes, parent))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[SpanRecord]:
        return iter(self._records)

    def clear(self) -> None:
        self._records.clear()

    # ------------------------------------------------------- canonical view
    def canonical_records(self) -> List[SpanRecord]:
        """Records stably sorted by ``(t0, t1, rank, sid, phase)``."""
        return sorted(self._records, key=_canon_key)

    def fingerprint(self) -> str:
        """Content hash of the canonical stream (hex digest).

        Uses blake2b over a rounded repr, so the digest is identical
        across processes and interpreter hash seeds.
        """
        h = hashlib.blake2b(digest_size=16)
        for r in self.canonical_records():
            h.update(
                repr(
                    (round(r[0], 12), round(r[1], 12), r[2], r[3], r[4], r[5], r[6], r[7])
                ).encode()
            )
        return h.hexdigest()

    # --------------------------------------------------------------- export
    def as_dicts(self) -> List[dict]:
        """Canonical records as JSON-ready dicts."""
        return [
            {
                "t0": r[0],
                "t1": r[1],
                "rank": r[2],
                "sid": list(r[3]),
                "phase": r[4],
                "kind": r[5],
                "nbytes": r[6],
                "parent": None if r[7] is None else list(r[7]),
            }
            for r in self.canonical_records()
        ]
