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
- **Off means absent.**  Only the runtime talks to the buffer.  The
  progress engine reaches it as each rank's sink (:mod:`repro.util.sink`);
  the service layers' phases go through ``Runtime.span``; the API calls
  mint sids.  With no buffer each of these is one ``None`` check (the
  sink tuple's emptiness, for the progress engine).
- **Rows, expanded on read.**  Only this module knows the phase layout.
  A traced operation appends a row at injection (``inject_sw``, plus its
  ``wire`` list, which the conduit fills with each frame's junctions, an
  ``rget``'s reply leg later at the target), at the inbox poll and at
  retirement (``compq``, ``exec_sw``); one whose rank dies keeps the rows
  appended so far.  Readers (``canonical_records``, ``fingerprint``,
  iteration, ``len``) get the expanded records.
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

from repro.util.sink import Sink

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

#: layout tags of the rows that expand to more than one record (any other
#: row is itself one record)
_SENT, _RETIRED = "sent", "retired"
#: per frame of an operation, its first attempt's phases (the second: an rget's reply)
_LEGS = (("nic_wait", "nic_occ", "wire"), ("remote_nic_wait", "remote_occ", "wire_back"))
#: every operation kind that mints a sid -> the kind its frames carry and
#: whether their ack is a phase (an AM's ack is never awaited, a get's is
#: its reply).  A new traced kind must be added here: reading its rows
#: raises ``KeyError`` until it is.
_FRAMES = {"rput": ("put", True), "amo": ("amo", True), "rget": ("get", False),
           "rpc": ("am", False), "rpc_reply": ("am", False)}


def _expand(row) -> Iterator[SpanRecord]:
    """The records of one row, in the order the phases happened."""
    layout = row[4]
    if layout == _SENT:
        t0, t1, rank, sid, _, kind, nbytes, parent, wire = row
        yield (t0, t1, rank, sid, "inject_sw", kind, nbytes, parent)
        fkind, acked = _FRAMES[kind]
        for phases, (snd, fbytes, t, begin, done, arrive, ack0, ack1, *retx) in zip(_LEGS, wire):
            yield (t, begin, snd, sid, phases[0], fkind, fbytes, None)
            yield (begin, done, snd, sid, phases[1], fkind, fbytes, None)
            yield (done, arrive, snd, sid, phases[2], fkind, fbytes, None)
            for i in range(0, len(retx), 2):
                yield (retx[i], retx[i + 1], snd, sid, "retry", fkind, fbytes, None)
            if acked and ack1 is not None:
                yield (ack0, ack1, snd, sid, "ack_wire", fkind, nbytes, None)
    elif layout == _RETIRED:
        t_q, t_exec, rank, sid, _, kind, nbytes, t_done = row
        if t_q is not None:
            yield (t_q, t_exec, rank, sid, "compq", kind, nbytes, None)
        yield (t_exec, t_done, rank, sid, "exec_sw", kind, nbytes, None)
    else:
        yield row


#: canonical sort key — independent of cross-rank interleaving for the
#: same reason as TraceBuffer: a rank's own records are appended in its
#: execution order, and the key is unique per record (one op never
#: emits the same phase twice at identical times on one rank)
def _canon_key(r: SpanRecord):
    return (r[0], r[1], r[2], r[3], r[4])


class SpanBuffer(Sink):
    """Append-only buffer of causal span rows, read as span records, and
    every rank's progress-engine sink (``inject``, ``poll``, ``retire``).

    Pass one to ``upcxx.run_spmd(spans=...)``; render with
    ``python -m repro.tools.report`` or export to Perfetto via
    :func:`repro.util.trace_export.chrome_trace_span_events`.
    """

    def __init__(self):
        self._rows: list = []

    def rank(self, r: int) -> "SpanBuffer":
        """Rank ``r``'s sink: the buffer itself (it reads the rank off the runtime)."""
        return self

    def inject(self, rt, op, now: float) -> None:
        sid = op.sid
        if sid is not None:
            # the conduit appends the frames' junctions to the op's list
            op.wire = wire = []
            self._rows.append((op.t_api, now, rt.rank, sid, _SENT, op.kind, op.nbytes, op.parent,
                               wire))

    def poll(self, rt, msg, now: float) -> None:
        sid = msg.sid
        if sid is not None:
            # the compQ span then starts here, so the two phases tile
            msg.t_polled = now
            self._rows.append((msg.arrival, now, rt.rank, sid, "inbox", msg.kind, msg.nbytes, None))

    def retire(self, rt, item, t_exec: float, now: float) -> None:
        sid = item.sid
        if sid is not None:
            t_q = item.t_polled
            if t_q is None:
                t_q = item.t_staged
            self._rows.append((t_q, t_exec, rt.rank, sid, _RETIRED, item.kind, item.nbytes, now))

    # ------------------------------------------------------------ recording
    def record(self, t0, t1, rank, sid, phase, kind, nbytes=0, parent=None) -> None:
        """Record one phase (any context; times are explicit arguments)."""
        self._rows.append((t0, t1, rank, sid, phase, kind, nbytes, parent))

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def __iter__(self) -> Iterator[SpanRecord]:
        for row in self._rows:
            yield from _expand(row)

    # ------------------------------------------------------- canonical view
    def canonical_records(self) -> List[SpanRecord]:
        """Records stably sorted by ``(t0, t1, rank, sid, phase)``."""
        return sorted(self, key=_canon_key)

    def fingerprint(self) -> str:
        """Content hash of the canonical stream (hex digest).

        Uses blake2b over a rounded repr, so the digest is identical
        across processes and interpreter hash seeds.
        """
        h = hashlib.blake2b(digest_size=16)
        for r in self.canonical_records():
            h.update(repr((round(r[0], 12), round(r[1], 12), *r[2:])).encode())
        return h.hexdigest()
