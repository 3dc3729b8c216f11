"""Destination-batched update aggregation (the HipMer motif as a subsystem).

The paper's biggest application-level win is *update aggregation*:
instead of paying one network round trip per DHT update, updates are
buffered per destination rank and shipped as one RPC per full buffer,
converting a latency-bound loop into an injection-rate-bound stream
(Fig. 9's 5.6 -> 25.5 M updates/s).  Until now that motif lived as a
one-off app (``repro.apps.dht.aggregating``); :class:`AggStore` promotes
it to a reusable runtime layer, in the style of the Conveyors/HipMer
aggregators:

- **Destination batching** — ``update(key, value)`` buffers locally by
  owner rank (``hash_target`` by default); a full buffer flushes as one
  ``rpc_ff`` carrying parallel key/value arrays.
- **Pluggable combine** — the target merges each update into its shard
  with a per-store combine function (``"+"``, ``"replace"``, ``"min"``,
  ``"max"`` or any callable).  The combine is registered locally at
  construction, so it never crosses the wire.
- **Source combining** — with ``combine_at_source=True`` a buffer's
  same-key entries are folded with the store's own combine when the
  batch is *sealed* (one hash pass in ``_flush_dest``, charged
  ``cpu.map_lookup`` per raw entry at the sender, nothing for a
  one-entry batch), so duplicates meet at the sender instead of at the
  rank that owns a hot key — the "combine" half of the HipMer motif.
  Buffering, the flush triggers and the per-batch ack are untouched;
  the folded count leaves the quiescence ledger again
  (``updates_combined``).  Worth it on skewed keys (the KV service
  folds 61 % of a saturated Zipf(1.1) stream), a pure cost on uniform
  ones, hence opt-in.
- **Adaptive flush** — buffers also flush on *simulated-time* dwell
  (``max_dwell``): a partial batch does not strand in its buffer past
  the deadline.  ``poll()`` is the pacing hook apps call from their
  request loop.  The dwell is for a sender that is busy; one about to
  sleep has nothing left to coalesce with and calls
  :meth:`AggStore.flush_ready` (from ``Runtime.wait_quiet``'s
  ``before_park`` hook — the KV front end's pacing sleep does), which
  ships every partial data buffer whose peer has a credit and never
  stalls, so aggregation costs latency only where there is throughput
  to buy.
- **Credit-based flow control** — with ``credits=k`` at most ``k``
  batches per peer are in flight; the target acks each applied batch and
  the ack returns the credit.  An exhausted peer stalls the sender in
  simulated time (recorded as a ``credit_wait`` span — the report's
  ``backpressure`` bucket — and charged to the conduit's endpoint
  accounting), which is exactly the NIC-friendly backpressure the
  "MPI Progress For All" line of work argues for.
- **Counting quiescence** — :meth:`quiesce` replaces the repeated
  all-reduce polling loop of the old ``AggregatingCounter.sync`` with
  counting-based termination detection: one all-reduce of the per-
  destination *sent* counts, then each rank waits locally until its
  *applied* count reaches what the world owes it.  One collective per
  round instead of an unbounded polling loop.
- **Hot-key read cache** — with ``cache_capacity > 0``, :meth:`read`
  serves repeated keys from a local LRU, kept coherent the way a
  directory protocol does it.  A read-through *registers* the reader in
  the owner's sharer list for the key (``state["watchers"]``); a write
  *consumes* the list: every member — the writer included, it may have
  re-read the old value while its write sat in a buffer — is owed
  exactly one invalidation, piggybacked onto the aggregated flush
  stream (data batches headed to the sharer carry it for free;
  otherwise it flushes with the store's own batching rules), and the
  reader registers again on its next read-through.  Per-channel FIFO
  delivery orders the fill reply before the invalidation of any later
  write.  Concurrent misses share one fill: a miss on a key whose
  read-through is already in flight to the same holder waits on that
  reply instead of sending a second RPC (``reads_coalesced``; the entry
  dies when the reply lands, when a batch carrying the key to that
  holder is sealed — a read issued after my write *shipped* is ordered
  after it at the owner and must not see an older fill — and at a peer's
  death).  The owner reports a missing key as absent; the cache holds an
  absent marker and every reader applies its own ``default``.  Two
  laws, both checked by ``tests/test_kv_coherence.py``:
  after :meth:`quiesce` every cached value equals the owner's and its
  holder is in the owner's sharer list; and per owner ``invals_sent <=
  sharers_registered`` — invalidation traffic is bounded by the copies
  that exist, not by the ranks that ever read the key.  A silent LRU
  eviction costs at most one spurious invalidation (DESIGN.md §4.6).

Everything is deterministic: buffers are plain per-destination lists
filled in program order, flush order is ascending destination rank, and
all pacing is simulated time — so results, traces, and span
fingerprints are a pure function of (program, seed), pinned by the
golden file (``tests/test_chaos_determinism.py``).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Callable, List, Optional, Union

import numpy as np

from repro.upcxx.collectives import barrier, reduce_all
from repro.upcxx.dist_object import DistObject
from repro.upcxx.future import Future, make_future
from repro.upcxx.rpc import rpc, rpc_ff
from repro.upcxx.runtime import current_runtime
from repro.upcxx.view import make_view


# ------------------------------------------------------------------ combines
def combine_add(old, new):
    """Accumulate (the HipMer k-mer counting combine)."""
    return old + new


def combine_replace(old, new):
    """Last-writer-wins (KV put semantics)."""
    return new


def combine_min(old, new):
    return new if new < old else old


def combine_max(old, new):
    return new if new > old else old


#: named combines — resolved locally on every rank at construction, so a
#: combine function never needs to be serialized
COMBINES = {
    "+": combine_add,
    "replace": combine_replace,
    "min": combine_min,
    "max": combine_max,
}

_MISS = object()

#: cached in place of a value when the owner reported the key absent; a
#: reader holding it answers with its *own* default
_ABSENT = object()


def default_route(key, n_ranks: int) -> int:
    """Deterministic key -> owner mapping (splitmix64 finalizer).

    Non-integer keys go through blake2b rather than ``hash()``: builtin
    string hashing is salted per process, which would scatter a key's
    owner across runs and break run-to-run bit-identity.
    """
    if not isinstance(key, int):
        key = int.from_bytes(
            hashlib.blake2b(repr(key).encode(), digest_size=8).digest(), "big"
        )
    z = (key + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    z = z ^ (z >> 31)
    return z % n_ranks


# ------------------------------------------------------------- rpc bodies
def _as_list(payload):
    """Batch payload -> plain list (Views arrive as zero-copy arrays)."""
    if hasattr(payload, "to_numpy"):
        return payload.to_numpy().tolist()
    return list(payload)


def _apply_invals(rt, state, store: "AggStore", keys) -> None:
    """Apply a list of cache-invalidation keys at a watcher rank."""
    klist = _as_list(keys)
    # one lookup-ish charge per eviction probe
    rt.charge_sw(rt.cpu.map_lookup * len(klist))
    state["applied_invals"] += len(klist)
    cache = store._cache
    if cache is not None:
        for k in klist:
            if cache.pop(k, _MISS) is not _MISS:
                store.cache_invalidations += 1


def _agg_apply(dobj: DistObject, src: int, seq: int, keys, vals, invals) -> None:
    """RPC body: merge one aggregated batch into the local shard.

    ``src`` is only "ack to": the sender's team rank when it wants an ack
    (credits or latency tracking), else ``-1``.  ``invals`` piggybacks
    invalidation keys the sender's shard owes *this* rank as a sharer.
    """
    rt = current_runtime()
    state = dobj.value
    store: AggStore = state["store"]
    klist = _as_list(keys)
    vlist = _as_list(vals)
    rt.charge_sw(rt.cpu.map_insert * len(klist))
    combine = state["combine"]
    data = state["data"]
    watchers = state["watchers"]
    for k, v in zip(klist, vlist):
        old = data.get(k, _MISS)
        data[k] = v if old is _MISS else combine(old, v)
        if watchers:
            # a write consumes the sharer list: popped before queueing, so
            # a registration arriving mid-flush starts a fresh list
            for w in watchers.pop(k, ()):
                store._queue_inval(w, k)
    state["applied_updates"] += len(klist)
    state["applied_batches"] += 1
    if invals:
        _apply_invals(rt, state, store, invals)
    if src >= 0:
        rpc_ff(store.team[src], _agg_ack, dobj, store._my_trank, seq)


def _agg_ack(dobj: DistObject, from_trank: int, seq: int) -> None:
    """RPC body at the *origin*: one batch was applied; return its credit."""
    dobj.value["store"]._on_ack(from_trank, seq)


def _agg_invalidate(dobj: DistObject, keys) -> None:
    """RPC body: standalone invalidation batch at a watcher rank."""
    rt = current_runtime()
    state = dobj.value
    _apply_invals(rt, state, state["store"], keys)


def _agg_read(dobj: DistObject, key, reader: int) -> Future:
    """RPC body at the owner: read-through; a caching ``reader`` joins the
    key's sharer list (good for one invalidation, see ``_agg_apply``).

    The owner reports absence instead of guessing the reader's default:
    the reply is empty for a missing key and ``(v,)`` otherwise, so a
    stored ``None`` stays distinguishable from no entry.
    """
    rt = current_runtime()
    rt.charge_sw(rt.cpu.map_lookup)
    state = dobj.value
    state["reads_served"] += 1
    if reader >= 0:
        ws = state["watchers"].setdefault(key, [])
        if reader not in ws:
            ws.append(reader)
            state["sharers_registered"] += 1
    v = state["data"].get(key, _MISS)
    return make_future() if v is _MISS else make_future(v)


def _or_default(reply: Future, default) -> Future:
    """A reader's view of an ``_agg_read`` reply: the value, or the
    reader's own ``default`` when the owner reported the key absent."""
    return reply.then(lambda *found: found[0] if found else default)


# ---------------------------------------------------------------- the store
class AggStore:
    """A destination-batched distributed map (collective constructor).

    Parameters
    ----------
    combine:
        ``"+"``, ``"replace"``, ``"min"``, ``"max"`` or a callable
        ``(old, new) -> merged`` applied at the owner.  Must be uniform
        across ranks.
    batch_size:
        updates buffered per destination before a flush (>= 1).
    team:
        the participating team (default: world).
    max_dwell:
        optional simulated-seconds deadline: a partial batch older than
        this flushes at the next :meth:`poll` (:meth:`update` stamps the
        buffer's age, it does not check the deadline).
    credits:
        optional per-peer bound on in-flight (unacked) batches; the
        sender stalls in simulated time when a peer's credits run out.
    cache_capacity:
        >0 enables the hot-key read cache (LRU of that many keys), its
        sharer-list invalidation and shared fills.  Must be uniform
        across ranks (it decides whether :meth:`quiesce` runs its
        invalidation round).
    combine_at_source:
        fold same-key entries of a batch at the sender when it is sealed.
        Requires an *associative* combine — the owner then sees
        ``combine(old, combine(a, b))`` where it used to see
        ``combine(combine(old, a), b)``.  The four named combines are; a
        callable is taken at the caller's word.
    route:
        key -> team-rank mapping (default :func:`default_route`).
    on_batch_flushed / on_batch_acked:
        measurement hooks: ``(dest_trank, seq, n_updates)`` at flush
        time and ``(dest_trank, seq, t_now)`` when the ack returns
        (acks are enabled by ``credits`` or by ``on_batch_acked``).
    """

    def __init__(
        self,
        combine: Union[str, Callable] = "+",
        batch_size: int = 64,
        *,
        team=None,
        max_dwell: Optional[float] = None,
        credits: Optional[int] = None,
        cache_capacity: int = 0,
        combine_at_source: bool = False,
        route: Callable[[int, int], int] = default_route,
        on_batch_flushed: Optional[Callable[[int, int, int], None]] = None,
        on_batch_acked: Optional[Callable[[int, int, float], None]] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if credits is not None and credits < 1:
            raise ValueError(f"credits must be >= 1, got {credits}")
        rt = current_runtime()
        self._rt = rt
        self.team = team if team is not None else rt.team_world()
        self.batch_size = batch_size
        self.max_dwell = max_dwell
        self.cache_capacity = cache_capacity
        self.combine_at_source = combine_at_source
        self._route = route
        self._on_batch_flushed = on_batch_flushed
        self._on_batch_acked = on_batch_acked
        combine_fn = COMBINES[combine] if isinstance(combine, str) else combine
        n = self.team.rank_n()
        self._n = n
        self._my_trank = self.team.rank_me()
        #: local shard + counters; the ``store`` back-pointer lets RPC
        #: bodies reach the target rank's AggStore instance
        self.state = {
            "data": {},
            "combine": combine_fn,
            "watchers": {},
            "sharers_registered": 0,
            "applied_updates": 0,
            "applied_batches": 0,
            "applied_invals": 0,
            "reads_served": 0,
            "store": self,
        }
        self._dobj = DistObject(self.state, team=self.team)
        # -- per-destination buffers (team-rank indexed) --------------------
        self._buf_keys: List[list] = [[] for _ in range(n)]
        self._buf_vals: List[list] = [[] for _ in range(n)]
        self._t_first: List[Optional[float]] = [None] * n
        self._inval_buf: List[list] = [[] for _ in range(n)]
        self._t_first_inval: List[Optional[float]] = [None] * n
        # -- quiescence accounting ------------------------------------------
        self._sent_updates = np.zeros(n, dtype=np.int64)
        self._sent_invals = np.zeros(n, dtype=np.int64)
        self.batches_sent = 0
        #: application updates shipped, folded ones included; the wire
        #: carried ``updates_sent - updates_combined`` entries
        self.updates_sent = 0
        self.updates_combined = 0
        self.acks_received = 0
        self._batch_seq = 0
        # -- flow control ---------------------------------------------------
        self._credits: Optional[List[int]] = None if credits is None else [credits] * n
        self._credits_init = credits
        self._wants_ack = credits is not None or on_batch_acked is not None
        self.credit_stalls = 0
        self.credit_stall_s = 0.0
        # -- dead-peer exclusion (repro.upcxx.replication) ------------------
        #: peers detected dead: no sends, no credit waits, acks forgiven
        self._dead_peers: set = set()
        #: unacked in-flight batches per destination (forgiveness basis)
        self._inflight_to: List[int] = [0] * n
        #: batches to a now-dead peer whose ack will never arrive; counts
        #: toward the quiescence ack drain in place of the lost acks
        self.acks_forgiven = 0
        #: late acks from a dead peer, dropped (the batch was forgiven)
        self.acks_ignored = 0
        #: buffered updates dropped because their destination died
        self.updates_dropped = 0
        #: cache entries purged wholesale at a death (coherence reset)
        self.cache_purges = 0
        #: team the quiescence collectives run on; swapped to the alive
        #: subteam by exclude_dead so a dead rank cannot hang the drain
        self.quiesce_team = self.team
        # -- hot-key cache --------------------------------------------------
        self._cache: Optional[OrderedDict] = OrderedDict() if cache_capacity > 0 else None
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        #: read-throughs in flight per holder (team-rank indexed), ``key ->
        #: reply future``: a second miss on the key waits on the same reply
        #: (an MSHR)
        self._fills: List[dict] = [{} for _ in range(n)]
        self.reads_coalesced = 0

    # ----------------------------------------------------------- update side
    def dest_of(self, key) -> int:
        """Team rank owning ``key``."""
        return self._route(key, self._n)

    def update(self, key, value) -> None:
        """Buffer one update; flushes the destination's buffer when full."""
        self.update_to(self.dest_of(key), key, value)

    def update_to(self, t: int, key, value) -> None:
        """Buffer one update for an explicit destination (the replication
        layer's fan-out entry point; :meth:`update` is the routed case).
        Updates addressed to a detected-dead peer are dropped — the caller
        owns a surviving copy or accounts the loss."""
        if t in self._dead_peers:
            self.updates_dropped += 1
            return
        bk = self._buf_keys[t]
        bk.append(key)
        self._buf_vals[t].append(value)
        self._sent_updates[t] += 1
        if self._cache is not None:
            # local write-invalidate: our own cached copy is stale now
            self._cache.pop(key, None)
        if len(bk) >= self.batch_size:
            self._flush_dest(t)
        elif self.max_dwell is not None and self._t_first[t] is None:
            self._t_first[t] = self._rt.now()

    def poll(self) -> None:
        """Flush any buffer whose oldest entry exceeded ``max_dwell``.

        The pacing hook: request loops call this between operations so a
        partial batch cannot strand past its dwell deadline at low load.
        """
        if self.max_dwell is None:
            return
        deadline = self._rt.now() - self.max_dwell
        for t in range(self._n):
            tf = self._t_first[t]
            if tf is not None and tf <= deadline:
                self._flush_dest(t)
            ti = self._t_first_inval[t]
            if ti is not None and ti <= deadline and self._t_first[t] is None:
                self._flush_invals_dest(t)

    def flush(self) -> None:
        """Push out every partially-filled data buffer (invals piggyback)."""
        for t in range(self._n):
            self._flush_dest(t)

    def flush_ready(self) -> None:
        """Ship every partial *data* buffer whose peer can take it now.

        The work-conserving rule: a caller about to park has nothing left
        to coalesce with, so holding a batch for ``max_dwell`` only buys
        latency.  Never stalls — a peer at zero credits keeps its buffer
        until the ack (or the dwell deadline) — and leaves the
        invalidation buffers to their own dwell (a data batch still
        carries the ones queued for its destination).
        """
        credits = self._credits
        for t in range(self._n):
            if self._buf_keys[t] and (credits is None or credits[t] > 0):
                self._flush_dest(t)

    def _drop_dead_buffer(self, t: int) -> None:
        """Discard the (undeliverable) buffer for a detected-dead peer."""
        bk = self._buf_keys[t]
        if bk:
            self._sent_updates[t] -= len(bk)
            self.updates_dropped += len(bk)
            self._buf_keys[t] = []
            self._buf_vals[t] = []
        self._t_first[t] = None

    def _flush_dest(self, t: int) -> None:
        bk = self._buf_keys[t]
        if not bk:
            return
        if t in self._dead_peers:
            self._drop_dead_buffer(t)
            return
        rt = self._rt
        credits = self._credits
        if credits is not None and credits[t] == 0:
            # backpressure: stall in simulated time until the peer acks
            self.credit_stalls += 1
            t0 = rt.now()
            rt.wait_quiet(
                lambda: credits[t] > 0 or t in self._dead_peers, "agg::credit"
            )
            dt = rt.now() - t0
            if dt > 0.0:
                self.credit_stall_s += dt
                rt.conduit.endpoints[rt.rank].agg_credit_stall_s += dt
                sp = rt.spans
                if sp is not None:
                    sp.record(t0, rt.now(), rt.rank, rt.next_span_sid(),
                              "credit_wait", "agg", len(bk))
            if t in self._dead_peers:
                # the peer died while we stalled on its credits: the
                # exclusion restored them, but the buffer is undeliverable
                self._drop_dead_buffer(t)
                return
            bk = self._buf_keys[t]
        # snapshot *after* any stall: updates buffered meanwhile ride along
        bv = self._buf_vals[t]
        self._buf_keys[t] = []
        self._buf_vals[t] = []
        self._t_first[t] = None
        n_raw = len(bk)
        if self.combine_at_source and n_raw > 1:
            bk, bv = self._fold(t, bk, bv)
        fills = self._fills[t]
        if fills:
            # a read issued after this batch ships is FIFO-ordered after
            # it at the owner: it must not share a fill from before it
            for k in bk:
                fills.pop(k, None)
        inv = self._inval_buf[t]
        if inv:
            self._inval_buf[t] = []
            self._t_first_inval[t] = None
        keys = self._pack(bk)
        vals = self._pack(bv)
        invals = self._pack(inv) if inv else ()
        if credits is not None:
            credits[t] -= 1
        self._batch_seq += 1
        seq = self._batch_seq
        self.batches_sent += 1
        self.updates_sent += n_raw
        if self._wants_ack:
            self._inflight_to[t] += 1
        ep = rt.conduit.endpoints[rt.rank]
        ep.agg_batches += 1
        ep.agg_updates += n_raw
        src = self._my_trank if self._wants_ack else -1
        cb = self._on_batch_flushed
        if cb is not None:
            cb(t, seq, n_raw)
        rpc_ff(self.team[t], _agg_apply, self._dobj, src, seq, keys, vals, invals)

    def _fold(self, t: int, bk: list, bv: list):
        """Seal-time combining: fold same-key entries of one batch with the
        store's combine in one hash pass, first-occurrence order kept.
        The folded entries leave ``_sent_updates`` again — the owner will
        never apply them — so counting quiescence still closes."""
        rt = self._rt
        rt.charge_sw(rt.cpu.map_lookup * len(bk))
        combine = self.state["combine"]
        folded: dict = {}
        for k, v in zip(bk, bv):
            old = folded.get(k, _MISS)
            folded[k] = v if old is _MISS else combine(old, v)
        n_folded = len(bk) - len(folded)
        if not n_folded:
            return bk, bv
        self._sent_updates[t] -= n_folded
        self.updates_combined += n_folded
        return list(folded), list(folded.values())

    @staticmethod
    def _pack(items: list):
        """int-only batches ship as zero-copy int64 views; else verbatim."""
        if items and all(type(x) is int for x in items):
            arr = np.asarray(items, dtype=np.int64)
            return make_view(arr)
        return tuple(items)

    def _on_ack(self, dest_trank: int, seq: int) -> None:
        if dest_trank in self._dead_peers:
            # a straggler ack from a peer we already excluded: its batch
            # was forgiven and its credit restored — drop it entirely so
            # the quiescence arithmetic stays exact
            self.acks_ignored += 1
            return
        self.acks_received += 1
        if self._inflight_to[dest_trank] > 0:
            self._inflight_to[dest_trank] -= 1
        if self._credits is not None:
            self._credits[dest_trank] += 1
        cb = self._on_batch_acked
        if cb is not None:
            cb(dest_trank, seq, self._rt.now())

    # ------------------------------------------------------- invalidations
    def _queue_inval(self, watcher_trank: int, key) -> None:
        """Owner side: queue one invalidation for a watcher (piggybacked)."""
        if watcher_trank in self._dead_peers:
            # a pre-crash read RPC can still register a now-dead watcher;
            # never owe coherence traffic to a peer that cannot ack it
            return
        buf = self._inval_buf[watcher_trank]
        buf.append(key)
        self._sent_invals[watcher_trank] += 1
        if len(buf) >= self.batch_size:
            self._flush_invals_dest(watcher_trank)
        elif self.max_dwell is not None and self._t_first_inval[watcher_trank] is None:
            self._t_first_inval[watcher_trank] = self._rt.now()

    def _flush_invals_dest(self, t: int) -> None:
        buf = self._inval_buf[t]
        if not buf:
            return
        if t in self._dead_peers:
            self._sent_invals[t] -= len(buf)
            self._inval_buf[t] = []
            self._t_first_inval[t] = None
            return
        self._inval_buf[t] = []
        self._t_first_inval[t] = None
        # no credit, no ack: invalidations are small control traffic and
        # must be sendable from inside an RPC body without blocking
        rpc_ff(self.team[t], _agg_invalidate, self._dobj, self._pack(buf))

    def flush_invals(self) -> None:
        for t in range(self._n):
            self._flush_invals_dest(t)

    # -------------------------------------------------------------- reads
    def read(self, key, default=None) -> Future:
        """Asynchronous read of ``key`` (cache, then owner read-through)."""
        return self.read_from(self.dest_of(key), key, default)

    def read_from(self, t: int, key, default=None) -> Future:
        """Read-through against an explicit holder rank (the replication
        layer's failover entry point; :meth:`read` is the routed case).
        ``default`` is what *this* reader gets for a key the holder does
        not have; it never crosses the wire and is never cached."""
        cache = self._cache
        if cache is None:
            return _or_default(rpc(self.team[t], _agg_read, self._dobj, key, -1), default)
        v = cache.get(key, _MISS)
        if v is not _MISS:
            self.cache_hits += 1
            # endpoint-level mirror: telemetry rollups snapshot the
            # conduit endpoint, which outlives any one AggStore
            self._rt._ep.agg_cache_hits += 1
            self._charge_probe("cache_hit")
            cache.move_to_end(key)
            return make_future(default if v is _ABSENT else v)
        fills = self._fills[t]
        fill = fills.get(key)
        if fill is not None:
            # a read-through of this key is already in flight to this
            # holder: wait on its reply instead of sending a second RPC
            self.reads_coalesced += 1
            self._charge_probe("fill_share")
        else:
            self.cache_misses += 1
            fill = fills[key] = rpc(
                self.team[t], _agg_read, self._dobj, key, self._my_trank
            )
            fill._on_ready(lambda: self._fill_landed(fills, key, fill))
        return _or_default(fill, default)

    def _charge_probe(self, phase: str) -> None:
        """One local hash probe that answered a read without an RPC."""
        rt = self._rt
        t0 = rt.now()
        rt.charge_sw(rt.cpu.map_lookup)
        sp = rt.spans
        if sp is not None:
            sp.record(t0, rt.now(), rt.rank, rt.next_span_sid(), phase, "agg", 0)

    def _fill_landed(self, fills: dict, key, fill: Future) -> None:
        """The holder's reply is home: retire its shared-fill entry (unless
        a sealed write already replaced it) and cache what it said."""
        if fills.get(key) is fill:
            del fills[key]
        cache = self._cache
        cache[key] = fill._values[0] if fill._values else _ABSENT
        cache.move_to_end(key)
        if len(cache) > self.cache_capacity:
            cache.popitem(last=False)

    # ----------------------------------------------------- death handling
    def exclude_dead(self, trank: int, alive_team) -> None:
        """Cut a detected-dead peer out of every delivery obligation.

        Idempotent.  After this call the store can reach quiescence with
        the peer gone: its in-flight batches are *forgiven* (they count
        toward the ack drain in place of the acks that will never come),
        its credits are restored so no sender stalls on it forever, its
        buffered traffic is dropped, and the quiescence collectives are
        re-pointed at ``alive_team`` so a dead rank cannot hang them.
        The whole read cache is purged: the keys the dead rank owned are
        about to fail over to new primaries that hold no watcher
        registrations for us, so coherence restarts cold.
        """
        if trank in self._dead_peers:
            return
        self._dead_peers.add(trank)
        # forgive unackable in-flight batches and restore their credits
        forgiven = self._inflight_to[trank]
        if forgiven:
            self.acks_forgiven += forgiven
            self._inflight_to[trank] = 0
        if self._credits is not None:
            self._credits[trank] = self._credits_init
        # drop buffered traffic addressed to the dead peer
        self._drop_dead_buffer(trank)
        inv = self._inval_buf[trank]
        if inv:
            self._sent_invals[trank] -= len(inv)
            self._inval_buf[trank] = []
        self._t_first_inval[trank] = None
        # stop owing the dead peer coherence traffic
        for ws in self.state["watchers"].values():
            if trank in ws:
                ws.remove(trank)
        # purge the local cache wholesale: failed-over owners hold no
        # watcher registration for us, so cached copies of their keys
        # could go silently stale — restart cold and re-register
        if self._cache is not None and self._cache:
            self.cache_purges += len(self._cache)
            self._cache.clear()
        # ... and forget every fill in flight: one aimed at the dead rank
        # never lands, so nothing else would retire it (the replication
        # layer's failover re-issue names a new holder and starts afresh)
        for fills in self._fills:
            fills.clear()
        self.quiesce_team = alive_team

    # --------------------------------------------------------- quiescence
    def quiesce(self) -> None:
        """Global quiescence (collective): counting-based termination.

        One all-reduce of per-destination *sent* counts; each rank then
        waits locally until its *applied* count reaches the global
        expectation, and a barrier seals the round.  With caching on, a
        second round settles the invalidations those applies generated,
        and a final local wait drains outstanding acks so credits and
        latency callbacks are all home before returning.
        """
        rt = self._rt
        me = self._my_trank
        team = self.quiesce_team
        self.flush()
        expected = reduce_all(
            self._sent_updates.copy(), lambda a, b: a + b, team=team
        ).wait()
        owed = int(expected[me])
        # ``>=``: a since-dead sender's pre-crash deliveries are not in
        # the alive-team expectation, so applied may legitimately overshoot
        rt.wait_quiet(lambda: self.state["applied_updates"] >= owed, "agg::quiesce")
        barrier(team=team)
        if self.cache_capacity > 0:
            # all data batches are applied everywhere, so every
            # invalidation that will ever be generated is now queued
            self.flush_invals()
            expected_inv = reduce_all(
                self._sent_invals.copy(), lambda a, b: a + b, team=team
            ).wait()
            owed_inv = int(expected_inv[me])
            rt.wait_quiet(
                lambda: self.state["applied_invals"] >= owed_inv, "agg::quiesce-inv"
            )
            barrier(team=team)
        if self._wants_ack:
            rt.wait_quiet(
                lambda: self.acks_received + self.acks_forgiven >= self.batches_sent,
                "agg::quiesce-ack",
            )
            barrier(team=team)

    # ------------------------------------------------------------- queries
    def local_items(self) -> dict:
        return dict(self.state["data"])

    def local_size(self) -> int:
        return len(self.state["data"])

    def stats(self) -> dict:
        """Deterministic per-rank counters (JSON-ready)."""
        return {
            "batches_sent": self.batches_sent,
            "updates_sent": self.updates_sent,
            "updates_combined": self.updates_combined,
            "invals_sent": int(self._sent_invals.sum()),
            "sharers_registered": self.state["sharers_registered"],
            "acks_received": self.acks_received,
            "applied_updates": self.state["applied_updates"],
            "applied_batches": self.state["applied_batches"],
            "applied_invals": self.state["applied_invals"],
            "reads_served": self.state["reads_served"],
            "credit_stalls": self.credit_stalls,
            "credit_stall_s": self.credit_stall_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "reads_coalesced": self.reads_coalesced,
            "cache_invalidations": self.cache_invalidations,
            "acks_forgiven": self.acks_forgiven,
            "acks_ignored": self.acks_ignored,
            "updates_dropped": self.updates_dropped,
            "cache_purges": self.cache_purges,
        }
