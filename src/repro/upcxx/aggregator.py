"""Destination-batched update aggregation (the HipMer motif as a subsystem).

The paper's biggest application-level win is *update aggregation*:
instead of paying one network round trip per DHT update, updates are
buffered per destination rank and shipped as one RPC per full buffer,
converting a latency-bound loop into an injection-rate-bound stream
(Fig. 9's 5.6 -> 25.5 M updates/s).  :class:`AggStore` is that motif
as a reusable runtime layer, in the style of the Conveyors/HipMer
aggregators:

- **Destination batching** — ``update(key, value)`` buffers locally by
  owner rank (``default_route`` by default); a full buffer flushes as one
  ``rpc_ff`` carrying parallel key/value arrays.
- **Pluggable combine** — the target merges each update into its shard
  with a per-store combine function (``"+"``, ``"replace"``, ``"min"``,
  ``"max"`` or any callable).  The combine is registered locally at
  construction, so it never crosses the wire.
- **Source combining** — with ``combine_at_source=True`` duplicates
  meet at the sender instead of at the rank that owns a hot key — the
  "combine" half of the HipMer motif — in two places, both with the
  store's own combine.  An update whose key equals its buffer's last
  key folds into that entry (a *run*): uncharged, because it is one
  comparison in place of the append it saves, and appending is
  uncharged too.  The batch's other same-key entries fold when it is
  *sealed* (one hash pass in ``_flush_dest``, charged ``cpu.map_lookup``
  per buffered entry at the sender, nothing for a one-entry batch).  A
  buffer holds ``batch_size`` *entries*, so a run also fills batches
  with more updates.  The flush triggers and the per-batch ack are
  untouched; folded updates stay out of the quiescence ledger (a run
  never enters it, a seal fold leaves it again) and count in
  ``updates_combined``.  Worth it on skewed keys (the KV service folds
  64 % of a saturated Zipf(1.1) stream), a pure cost on uniform ones,
  hence opt-in: with it on, the aggregation ablation's uniform keys leave
  the seal pass nothing to fold, and the ``results/ablation_aggregation``
  sweep reads 29.22 -> 20.51 M updates/s at batch 64 (-30 %).
- **Adaptive flush** — buffers also flush on *simulated-time* dwell
  (``max_dwell``): a partial batch does not strand in its buffer past
  the deadline.  ``poll()`` is the pacing hook apps call from their
  request loop (one comparison while nothing is due).  The dwell is for
  a sender that is busy; one about to sleep has nothing left to coalesce
  with and calls :meth:`AggStore.flush_ready` (from ``Runtime.wait_quiet``'s
  ``before_park`` hook — the KV front end's pacing sleep does), which
  ships every partial data buffer whose peer has a credit and never
  stalls, so aggregation costs latency only where there is throughput
  to buy.
- **Credit-based flow control** — with ``credits=k`` at most ``k``
  batches per peer are in flight; the target acks each applied batch and
  the ack returns the credit.  An exhausted peer stalls the sender in
  simulated time (recorded as a ``credit_wait`` span — the report's
  ``backpressure`` bucket — and added to the runtime's
  ``agg_credit_stall_s``, which telemetry snapshots), which is exactly
  the NIC-friendly backpressure the "MPI Progress For All" line of work
  argues for.
- **Counting quiescence** — :meth:`quiesce` is counting-based
  termination detection: one all-reduce of the per-destination *sent*
  counts, then each rank waits locally until its *applied* count
  reaches what the world owes it.  One collective per round instead of
  an unbounded polling loop.  Every call checks two
  conservation laws and raises :class:`UpcxxError` naming the rank and
  the counts: with no peer excluded, a rank applied exactly what it is
  owed (the ledger), and after the ack drain every peer's credits are
  home.
- **Hot-key read cache** — with ``cache_capacity > 0``, :meth:`read`
  serves repeated keys from a local LRU, kept coherent the way a
  directory protocol does it.  A read-through *registers* the reader in
  the owner's sharer list for the key (``AggStore.watchers``); a write
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
  death).  A fill is a list of *waiters*, completed in list order when
  the reply lands: a read record's int id, handed to the store's
  ``on_read(id, found)`` hook (the replication layer's reads: an open
  read is then an id and a list slot, no closure or future), or a
  :class:`Future` for callers that ask for one (:meth:`read`).  Each
  waiter is charged one ``then_dispatch`` as the reader's continuation.
  The owner reports a missing key as absent; the cache holds an
  absent marker and every reader applies its own ``default``.  Two
  laws, both checked by ``tests/test_kv_coherence.py``:
  after :meth:`quiesce` every cached value equals the owner's and its
  holder is in the owner's sharer list; and per owner ``invals_sent <=
  sharers_registered`` — invalidation traffic is bounded by the copies
  that exist, not by the ranks that ever read the key.  A silent LRU
  eviction costs at most one spurious invalidation (DESIGN.md §4.6).
- **Read aggregation** — read-throughs batch per holder, self-clocked
  like Nagle's rule and with no knob of their own.  A miss whose holder
  has no read message in flight ships at once as the one-key
  ``_agg_read``, so below the knee a read costs what it always did.
  Misses issued while one is in flight wait in a per-holder buffer and
  ship as one ``_agg_read_batch`` (a single key as ``_agg_read``) when
  that reply lands, when the caller parks (:meth:`AggStore.flush_ready`),
  at :meth:`AggStore.flush`, or at ``batch_size`` keys; the holder's
  partial write batch goes just ahead when it has a credit, so the reply
  clocks the writes too.  The owner
  pays one dispatch, a ``map_lookup`` per key and one reply, and
  registers the reader per key exactly as a single read does.  Shared
  fills and their seal-time retirement are unchanged: a buffered miss
  owns a fill like a shipped one.  On the saturated KV service a read
  message carries 10.8 misses on average, so the hot owner pays its
  dispatch and reply once per batch (``read_batches`` counts the
  messages; a lone miss is a batch of one).

The store is its own ``dist_object`` representative: each rank's shard
(``data``, ``watchers``) and owner-side counters are attributes of its
``AggStore``, and an RPC body reaches them as ``dobj.value``.  Stores span
the world team, so a destination is a world rank; only the quiescence
collectives move to a subteam, the alive one, after a peer dies
(:meth:`AggStore.exclude_dead`).

Everything is deterministic: buffers are plain per-destination lists
filled in program order, flush order is ascending destination rank, and
all pacing is simulated time — so results, traces, and span
fingerprints are a pure function of (program, seed), pinned by the
golden file (``tests/test_chaos_determinism.py``).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from typing import Callable, List, Optional, Union

import numpy as np

from repro.upcxx.collectives import barrier, reduce_all
from repro.upcxx.dist_object import DistObject
from repro.upcxx.errors import UpcxxError
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


def _apply_invals(rt, store: "AggStore", keys) -> None:
    """Apply a list of cache-invalidation keys at a watcher rank."""
    klist = _as_list(keys)
    # one lookup-ish charge per eviction probe
    rt.charge_sw(rt.cpu.map_lookup * len(klist))
    store.applied_invals += len(klist)
    cache = store._cache
    if cache is not None:
        for k in klist:
            if cache.pop(k, _MISS) is not _MISS:
                store.cache_invalidations += 1


def _agg_apply(dobj: DistObject, src: int, seq: int, keys, vals, invals) -> None:
    """RPC body: merge one aggregated batch into the local shard.

    ``src`` is only "ack to": the sender's rank when it wants an ack
    (credits or latency tracking), else ``-1``.  ``invals`` piggybacks
    invalidation keys the sender's shard owes *this* rank as a sharer.
    """
    rt = current_runtime()
    store: AggStore = dobj.value
    klist = _as_list(keys)
    vlist = _as_list(vals)
    rt.charge_sw(rt.cpu.map_insert * len(klist))
    combine = store._combine
    data = store.data
    watchers = store.watchers
    for k, v in zip(klist, vlist):
        old = data.get(k, _MISS)
        data[k] = v if old is _MISS else combine(old, v)
        if watchers:
            # a write consumes the sharer list: popped before queueing, so
            # a registration arriving mid-flush starts a fresh list
            for w in watchers.pop(k, ()):
                store._queue_inval(w, k)
    store.applied_updates += len(klist)
    store.applied_batches += 1
    if invals:
        _apply_invals(rt, store, invals)
    if src >= 0:
        rpc_ff(src, _agg_ack, dobj, rt.rank, seq)


def _agg_ack(dobj: DistObject, from_rank: int, seq: int) -> None:
    """RPC body at the *origin*: one batch was applied; return its credit."""
    dobj.value._on_ack(from_rank, seq)


def _agg_invalidate(dobj: DistObject, keys) -> None:
    """RPC body: standalone invalidation batch at a watcher rank."""
    _apply_invals(current_runtime(), dobj.value, keys)


def _serve_read(store: "AggStore", key, reader: int):
    """Owner side of one read-through: a caching ``reader`` joins the key's
    sharer list (good for one invalidation, see ``_agg_apply``); returns
    the stored value or ``_MISS``."""
    store.reads_served += 1
    if reader >= 0:
        ws = store.watchers.setdefault(key, [])
        if reader not in ws:
            ws.append(reader)
            store.sharers_registered += 1
    return store.data.get(key, _MISS)


def _agg_read(dobj: DistObject, key, reader: int) -> Future:
    """RPC body at the owner: one read-through.

    The owner reports absence instead of guessing the reader's default:
    the reply is empty for a missing key and ``(v,)`` otherwise, so a
    stored ``None`` stays distinguishable from no entry.
    """
    rt = current_runtime()
    rt.charge_sw(rt.cpu.map_lookup)
    v = _serve_read(dobj.value, key, reader)
    return make_future() if v is _MISS else make_future(v)


def _agg_read_batch(dobj: DistObject, keys, reader: int) -> Future:
    """RPC body at the owner: a batch of read-throughs from one reader —
    one dispatch, one reply, a ``map_lookup`` per key.  The reply is the
    values in key order (``0`` standing in for a missing key) and the
    indices of the missing keys."""
    rt = current_runtime()
    klist = _as_list(keys)
    rt.charge_sw(rt.cpu.map_lookup * len(klist))
    store = dobj.value
    vals, absent = [], []
    for i, k in enumerate(klist):
        v = _serve_read(store, k, reader)
        if v is _MISS:
            absent.append(i)
            v = 0
        vals.append(v)
    return make_future(AggStore._pack(vals), tuple(absent))


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
        entries buffered per destination before a flush (>= 1); without
        ``combine_at_source`` every update is an entry.
    max_dwell:
        optional simulated-seconds deadline: a partial batch older than
        this flushes at the next :meth:`poll` (:meth:`update` stamps the
        buffer's age, it does not check the deadline).
    credits:
        optional per-peer bound on in-flight (unacked) batches; the
        sender stalls in simulated time when a peer's credits run out.
    cache_capacity:
        >0 enables the hot-key read cache (LRU of that many keys), its
        sharer-list invalidation, shared fills and per-holder read
        batches.  Must be uniform
        across ranks (it decides whether :meth:`quiesce` runs its
        invalidation round).
    combine_at_source:
        fold an update into its buffer's last entry when the key repeats
        (uncharged, like the append it replaces), and the remaining
        same-key entries of a batch when it is sealed (one
        ``map_lookup`` per entry).  Requires an *associative* combine —
        the owner then sees ``combine(old, combine(a, b))`` where it used
        to see ``combine(combine(old, a), b)``.  The four named combines
        are; a callable is taken at the caller's word.
    on_batch_flushed / on_batch_acked:
        measurement hooks: ``(dest, seq, n_updates)`` at flush
        time and ``(dest, seq, t_now)`` when the ack returns
        (acks are enabled by ``credits`` or by ``on_batch_acked``).
    on_read:
        completion hook ``(read_id, found)`` for reads issued by id
        through :meth:`read_into`; ``found`` is ``(value,)``, or ``()``
        when the holder reported the key absent.
    """

    def __init__(
        self,
        combine: Union[str, Callable] = "+",
        batch_size: int = 64,
        *,
        max_dwell: Optional[float] = None,
        credits: Optional[int] = None,
        cache_capacity: int = 0,
        combine_at_source: bool = False,
        on_batch_flushed: Optional[Callable[[int, int, int], None]] = None,
        on_batch_acked: Optional[Callable[[int, int, float], None]] = None,
        on_read: Optional[Callable[[int, tuple], None]] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if credits is not None and credits < 1:
            raise ValueError(f"credits must be >= 1, got {credits}")
        rt = current_runtime()
        self._rt = rt
        self.batch_size = batch_size
        self.max_dwell = max_dwell
        self.cache_capacity = cache_capacity
        self.combine_at_source = combine_at_source
        self._on_batch_flushed = on_batch_flushed
        self._on_batch_acked = on_batch_acked
        self._on_read = on_read
        self._combine = COMBINES[combine] if isinstance(combine, str) else combine
        n = rt.world.n_ranks
        self._n = n
        # -- the local shard and what this rank did as its owner -------------
        self.data: dict = {}
        #: key -> ranks whose cached copy the next write must invalidate
        self.watchers: dict = {}
        self.sharers_registered = 0
        self.applied_updates = 0
        self.applied_batches = 0
        self.applied_invals = 0
        self.reads_served = 0
        #: the store is its own representative: RPC bodies get the
        #: target rank's AggStore as ``dobj.value``
        self._dobj = DistObject(self)
        # -- per-destination buffers (rank indexed) --------------------------
        self._buf_keys: List[list] = [[] for _ in range(n)]
        self._buf_vals: List[list] = [[] for _ in range(n)]
        self._t_first: List[Optional[float]] = [None] * n
        #: updates folded into a buffer's last entry (source combining)
        self._run_folds: List[int] = [0] * n
        self._inval_buf: List[list] = [[] for _ in range(n)]
        self._t_first_inval: List[Optional[float]] = [None] * n
        #: <= every armed dwell stamp; a flush may leave it stale-low
        self._oldest_armed = math.inf
        self._held: set = set()  # destinations that may hold writes or reads
        # -- quiescence accounting ------------------------------------------
        self._sent_updates: List[int] = [0] * n
        self._sent_invals: List[int] = [0] * n
        self.batches_sent = 0
        #: application updates shipped, folded ones included; the wire
        #: carried ``updates_sent - updates_combined`` entries
        self.updates_sent = 0
        self.updates_combined = 0
        self.acks_received = 0
        # -- flow control ---------------------------------------------------
        self._credits: Optional[List[int]] = None if credits is None else [credits] * n
        self._credits_init = credits
        self._wants_ack = credits is not None or on_batch_acked is not None
        self.credit_stalls = 0
        self.credit_stall_s = 0.0
        # -- dead-peer exclusion (repro.upcxx.replication) ------------------
        #: peers detected dead: no sends, no credit waits, acks forgiven.
        #: exclude_dead is its only writer; a ReplicaMap reads this same set
        self.dead_peers: set = set()
        #: unacked in-flight batches per destination (forgiveness basis)
        self._inflight_to: List[int] = [0] * n
        #: batches to a now-dead peer whose ack will never arrive; counts
        #: toward the quiescence ack drain in place of the lost acks
        self.acks_forgiven = 0
        #: late acks from a dead peer, dropped (the batch was forgiven)
        self.acks_ignored = 0
        #: application updates dropped because their destination died
        #: (a buffered run counts every update folded into it)
        self.updates_dropped = 0
        #: cache entries purged wholesale at a death (coherence reset)
        self.cache_purges = 0
        #: team the quiescence collectives run on; swapped to the alive
        #: subteam by exclude_dead so a dead rank cannot hang the drain
        self.quiesce_team = rt.team_world()
        # -- hot-key cache --------------------------------------------------
        self._cache: Optional[OrderedDict] = OrderedDict() if cache_capacity > 0 else None
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_invalidations = 0
        #: read-throughs in flight per holder (rank indexed), ``key ->
        #: waiter list``: a second miss on the key joins the same list and
        #: waits on the same reply (an MSHR)
        self._fills: List[dict] = [{} for _ in range(n)]
        self.reads_coalesced = 0
        #: read messages in flight per holder, and the misses buffered
        #: behind them (keys and their fills, in issue order)
        self._reads_inflight: List[int] = [0] * n
        self._read_keys: List[list] = [[] for _ in range(n)]
        self._read_fills: List[list] = [[] for _ in range(n)]
        #: read-through messages sent (a lone miss is a batch of one)
        self.read_batches = 0

    # ----------------------------------------------------------- update side
    def dest_of(self, key) -> int:
        """Rank owning ``key``."""
        return default_route(key, self._n)

    def update(self, key, value) -> None:
        """Buffer one update; flushes the destination's buffer when full."""
        self.update_to(self.dest_of(key), key, value)

    def update_to(self, t: int, key, value) -> None:
        """Buffer one update for an explicit destination (the replication
        layer's fan-out entry point; :meth:`update` is the routed case).
        Updates addressed to a detected-dead peer are dropped — the caller
        owns a surviving copy or accounts the loss.  Uncharged: buffering
        is a list append, and under ``combine_at_source`` a repeat of the
        buffer's last key folds into that entry instead."""
        if t in self.dead_peers:
            self.updates_dropped += 1
            return
        if self._cache is not None:
            # local write-invalidate: our own cached copy is stale now
            self._cache.pop(key, None)
        bk = self._buf_keys[t]
        if self.combine_at_source and bk and bk[-1] == key:
            # a run: fold into the last entry, which the owner will apply
            # once — so the fold never enters ``_sent_updates``
            bv = self._buf_vals[t]
            bv[-1] = self._combine(bv[-1], value)
            self._run_folds[t] += 1
            return
        if not bk:
            self._held.add(t)
        bk.append(key)
        self._buf_vals[t].append(value)
        self._sent_updates[t] += 1
        if len(bk) >= self.batch_size:
            self._flush_dest(t)
        elif self.max_dwell is not None and self._t_first[t] is None:
            self._t_first[t] = now = self._rt.now()
            self._oldest_armed = min(self._oldest_armed, now)

    def poll(self) -> None:
        """Flush any buffer whose oldest entry exceeded ``max_dwell``.

        The pacing hook: request loops call this between operations so a
        partial batch cannot strand past its dwell deadline at low load.
        One comparison when nothing is due; else a walk on live state (a
        credit stall runs user progress, which can arm any stamp).
        """
        if self.max_dwell is None:
            return
        deadline = self._rt.sched.now() - self.max_dwell
        if self._oldest_armed > deadline:
            return
        for t in range(self._n):
            tf = self._t_first[t]
            if tf is not None and tf <= deadline:
                self._flush_dest(t)
            ti = self._t_first_inval[t]
            if ti is not None and ti <= deadline and self._t_first[t] is None:
                self._flush_invals_dest(t)
        armed = [x for x in self._t_first + self._t_first_inval if x is not None]
        self._oldest_armed = min(armed, default=math.inf)

    def flush(self) -> None:
        """Push out every partially-filled data buffer (invals piggyback)
        and every buffered read batch."""
        for t in range(self._n):
            self._flush_dest(t)
            self._ship_reads(t)

    def flush_ready(self) -> None:
        """Ship every partial *data* buffer whose peer can take it now.

        The work-conserving rule: a caller about to park has nothing left
        to coalesce with, so holding a batch for ``max_dwell`` only buys
        latency.  Never stalls — a peer at zero credits keeps its buffer
        until the ack (or the dwell deadline) — and leaves the
        invalidation buffers to their own dwell (a data batch still
        carries the ones queued for its destination).  Buffered reads
        ship too: they hold no credit.  Visits only ``_held`` (shipping runs
        no user progress, so no buffer fills during the walk).
        """
        held, self._held = self._held, set()
        for t in sorted(held):
            self._flush_if_credit(t)
            self._ship_reads(t)
            if self._buf_keys[t]:  # no credit: it waits for the ack
                self._held.add(t)

    def _flush_if_credit(self, t: int) -> None:
        """Ship ``t``'s partial data buffer if a credit is free (never stalls)."""
        credits = self._credits
        if self._buf_keys[t] and (credits is None or credits[t] > 0):
            self._flush_dest(t)

    def _drop_dead_buffer(self, t: int) -> None:
        """Discard the (undeliverable) buffer for a detected-dead peer."""
        bk = self._buf_keys[t]
        if bk:
            self._sent_updates[t] -= len(bk)
            self.updates_dropped += len(bk) + self._run_folds[t]
            self._buf_keys[t] = []
            self._buf_vals[t] = []
            self._run_folds[t] = 0
        self._t_first[t] = None

    def _flush_dest(self, t: int) -> None:
        bk = self._buf_keys[t]
        if not bk:
            return
        if t in self.dead_peers:
            self._drop_dead_buffer(t)
            return
        rt = self._rt
        credits = self._credits
        if credits is not None and credits[t] == 0:
            # backpressure: stall in simulated time until the peer acks
            self.credit_stalls += 1
            t0 = rt.now()
            rt.wait_quiet(
                lambda: credits[t] > 0 or t in self.dead_peers, "agg::credit"
            )
            dt = rt.now() - t0
            if dt > 0.0:
                self.credit_stall_s += dt
                rt.agg_credit_stall_s += dt
                rt.span(t0, "credit_wait", "agg", len(bk))
            if t in self.dead_peers:
                # the peer died while we stalled on its credits: the
                # exclusion restored them, but the buffer is undeliverable
                self._drop_dead_buffer(t)
                return
            bk = self._buf_keys[t]
            if not bk:
                # a read reply landing during the stall shipped the buffer
                # ahead of its read batch (``_ship_reads``)
                return
        # snapshot *after* any stall: updates buffered meanwhile ride along
        bv = self._buf_vals[t]
        self._buf_keys[t] = []
        self._buf_vals[t] = []
        self._t_first[t] = None
        runs = self._run_folds[t]
        self._run_folds[t] = 0
        self.updates_combined += runs
        n_updates = len(bk) + runs
        if self.combine_at_source and len(bk) > 1:
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
        self.batches_sent += 1
        seq = self.batches_sent
        self.updates_sent += n_updates
        if self._wants_ack:
            self._inflight_to[t] += 1
        rt.agg_batches += 1
        rt.agg_updates += n_updates
        src = rt.rank if self._wants_ack else -1
        cb = self._on_batch_flushed
        if cb is not None:
            cb(t, seq, n_updates)
        rpc_ff(t, _agg_apply, self._dobj, src, seq, keys, vals, invals)

    def _fold(self, t: int, bk: list, bv: list):
        """The seal pass: fold same-key entries of one batch with the
        store's combine in one hash pass, first-occurrence order kept.
        The folded entries leave ``_sent_updates`` again — the owner will
        never apply them — so counting quiescence still closes."""
        rt = self._rt
        rt.charge_sw(rt.cpu.map_lookup * len(bk))
        combine = self._combine
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
        """int-only batches ship as zero-copy int64 views; else verbatim
        (a ``bool`` or numpy scalar is not an ``int`` here)."""
        if set(map(type, items)) == {int}:
            arr = np.asarray(items, dtype=np.int64)
            return make_view(arr)
        return tuple(items)

    def _on_ack(self, dest: int, seq: int) -> None:
        if dest in self.dead_peers:
            # a straggler ack from a peer we already excluded: its batch
            # was forgiven and its credit restored — drop it entirely so
            # the quiescence arithmetic stays exact
            self.acks_ignored += 1
            return
        self.acks_received += 1
        if self._inflight_to[dest] > 0:
            self._inflight_to[dest] -= 1
        if self._credits is not None:
            self._credits[dest] += 1
        cb = self._on_batch_acked
        if cb is not None:
            cb(dest, seq, self._rt.now())

    # ------------------------------------------------------- invalidations
    def _queue_inval(self, watcher: int, key) -> None:
        """Owner side: queue one invalidation for a watcher (piggybacked)."""
        if watcher in self.dead_peers:
            # a pre-crash read RPC can still register a now-dead watcher;
            # never owe coherence traffic to a peer that cannot ack it
            return
        buf = self._inval_buf[watcher]
        buf.append(key)
        self._sent_invals[watcher] += 1
        if len(buf) >= self.batch_size:
            self._flush_invals_dest(watcher)
        elif self.max_dwell is not None and self._t_first_inval[watcher] is None:
            self._t_first_inval[watcher] = now = self._rt.now()
            self._oldest_armed = min(self._oldest_armed, now)

    def _flush_invals_dest(self, t: int) -> None:
        buf = self._inval_buf[t]
        if not buf:
            return
        if t in self.dead_peers:
            self._sent_invals[t] -= len(buf)
            self._inval_buf[t] = []
            self._t_first_inval[t] = None
            return
        self._inval_buf[t] = []
        self._t_first_inval[t] = None
        # no credit, no ack: invalidations are small control traffic and
        # must be sendable from inside an RPC body without blocking
        rpc_ff(t, _agg_invalidate, self._dobj, self._pack(buf))

    def flush_invals(self) -> None:
        for t in range(self._n):
            self._flush_invals_dest(t)

    # -------------------------------------------------------------- reads
    def read(self, key, default=None) -> Future:
        """Asynchronous read of ``key`` (cache, then owner read-through)."""
        return self.read_from(self.dest_of(key), key, default)

    def read_from(self, t: int, key, default=None) -> Future:
        """Read-through against an explicit holder rank, as a
        :class:`Future` waiter.  ``default`` is what *this* reader gets
        for a key the holder does not have; it never crosses the wire and
        is never cached."""
        fut = Future(self._rt)
        fut._values = (default,)  # staged until the fill lands, as a Promise does
        self.read_into(t, key, fut)
        return fut

    def read_into(self, t: int, key, waiter) -> None:
        """Read ``key`` from holder ``t`` (cache, then read-through) for
        ``waiter``: a read id, completed through ``on_read(id, found)``,
        or a :class:`Future` staged by :meth:`read_from`.  A cache hit
        completes inline; a miss joins the key's shared fill."""
        cache = self._cache
        if cache is None:
            reply = rpc(t, _agg_read, self._dobj, key, -1)
            reply._on_ready(lambda: self._complete([waiter], reply._values))
            return
        v = cache.get(key, _MISS)
        if v is not _MISS:
            self.cache_hits += 1
            # rank-level mirror: telemetry rollups snapshot the runtime,
            # which outlives any one AggStore
            self._rt.agg_cache_hits += 1
            self._charge_probe("cache_hit")
            cache.move_to_end(key)
            self._deliver(waiter, () if v is _ABSENT else (v,))
            return
        fills = self._fills[t]
        fill = fills.get(key)
        if fill is not None:
            # a read-through of this key is already in flight to this
            # holder: wait on its reply instead of sending a second RPC
            self.reads_coalesced += 1
            self._charge_probe("fill_share")
            fill.append(waiter)
            return
        self.cache_misses += 1
        fill = fills[key] = [waiter]
        if not self._reads_inflight[t]:
            self._send_reads(t, [key], [fill])
        else:
            # a read message to this holder is in flight: ride the next
            # batch, which ships when its reply lands (or earlier, full or
            # at a park)
            rk = self._read_keys[t]
            if not rk:
                self._held.add(t)
            rk.append(key)
            self._read_fills[t].append(fill)
            if len(rk) >= self.batch_size:
                self._ship_reads(t)

    def _complete(self, fill: list, found: tuple) -> None:
        """The holder answered ``found`` for one fill: complete its waiters
        in list order, each charged one ``then_dispatch`` (the reader's
        continuation)."""
        rt = self._rt
        for w in fill:
            rt.sched.charge(rt._c_then_dispatch)
            self._deliver(w, found)

    def _deliver(self, waiter, found: tuple) -> None:
        """Hand ``found`` (``(value,)``, or ``()`` for absent) to one
        waiter: a read id goes to ``on_read``, a :class:`Future` gets the
        value or its staged default."""
        if type(waiter) is int:
            self._on_read(waiter, found)
        else:
            waiter._fulfill(found or waiter._values)

    def _ship_reads(self, t: int) -> None:
        """Send holder ``t``'s buffered misses as one read batch, preceded
        by its partial write batch when a credit allows (the read reply
        then clocks the writes too; never stalls)."""
        keys = self._read_keys[t]
        if not keys:
            return
        fills = self._read_fills[t]
        self._read_keys[t] = []
        self._read_fills[t] = []
        self._flush_if_credit(t)
        self._send_reads(t, keys, fills)

    def _send_reads(self, t: int, keys: list, fills: list) -> None:
        """One read message to holder ``t``: the one-key ``_agg_read`` for
        a single miss, ``_agg_read_batch`` for more."""
        me = self._rt.rank
        if len(keys) == 1:
            reply = rpc(t, _agg_read, self._dobj, keys[0], me)
        else:
            reply = rpc(t, _agg_read_batch, self._dobj, self._pack(keys), me)
        self._reads_inflight[t] += 1
        self.read_batches += 1
        self._rt.agg_read_batches += 1
        reply._on_ready(lambda: self._reads_landed(t, keys, fills, reply))

    def _reads_landed(self, t: int, keys: list, fills: list, reply: Future) -> None:
        """A read message's reply is home: per key, retire its shared fill
        (unless a sealed write already replaced it), cache what the holder
        said and complete the fill's waiters; then ship what queued behind
        it."""
        if t not in self.dead_peers:  # an exclusion already zeroed the count
            self._reads_inflight[t] -= 1
        if len(fills) == 1:
            found = [reply._values]
        else:
            vals, absent = reply._values
            vals = _as_list(vals)
            absent = set(absent)
            found = [() if i in absent else (vals[i],) for i in range(len(fills))]
        shared = self._fills[t]
        cache = self._cache
        for key, fill, values in zip(keys, fills, found):
            if shared.get(key) is fill:
                del shared[key]
            cache[key] = values[0] if values else _ABSENT
            cache.move_to_end(key)
            if len(cache) > self.cache_capacity:
                cache.popitem(last=False)
            self._complete(fill, values)
        self._ship_reads(t)

    def _charge_probe(self, phase: str) -> None:
        """One local hash probe that answered a read without an RPC."""
        rt = self._rt
        t0 = rt.now()
        rt.charge_sw(rt.cpu.map_lookup)
        rt.span(t0, phase, "agg")

    # ----------------------------------------------------- death handling
    def exclude_dead(self, rank: int) -> None:
        """Cut a detected-dead peer out of every delivery obligation.

        Idempotent.  After this call the store can reach quiescence with
        the peer gone: its in-flight batches are *forgiven* (they count
        toward the ack drain in place of the acks that will never come),
        its credits are restored so no sender stalls on it forever, its
        buffered traffic is dropped, and the quiescence collectives are
        re-pointed at the subteam of ranks not excluded so a dead rank
        cannot hang them.
        The whole read cache is purged: the keys the dead rank owned are
        about to fail over to new primaries that hold no watcher
        registrations for us, so coherence restarts cold.
        """
        dead = self.dead_peers
        if rank in dead:
            return
        dead.add(rank)
        # forgive unackable in-flight batches and restore their credits
        forgiven = self._inflight_to[rank]
        if forgiven:
            self.acks_forgiven += forgiven
            self._inflight_to[rank] = 0
        if self._credits is not None:
            self._credits[rank] = self._credits_init
        # drop buffered traffic addressed to the dead peer
        self._drop_dead_buffer(rank)
        self._read_keys[rank] = []
        self._read_fills[rank] = []
        self._reads_inflight[rank] = 0
        self._flush_invals_dest(rank)
        # stop owing the dead peer coherence traffic
        for ws in self.watchers.values():
            if rank in ws:
                ws.remove(rank)
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
        self.quiesce_team = self._rt.team_world().create_subteam(
            [r for r in range(self._n) if r not in dead]
        )

    # --------------------------------------------------------- quiescence
    def quiesce(self) -> None:
        """Global quiescence (collective): counting-based termination.

        One all-reduce of per-destination *sent* counts; each rank then
        waits locally until its *applied* count reaches the global
        expectation, and a barrier seals the round.  With caching on, a
        second round settles the invalidations those applies generated,
        and a final local wait drains outstanding acks so credits and
        latency callbacks are all home before returning.  Raises
        :class:`UpcxxError` when the ledger (no peer excluded: applied ==
        owed) or the credit law (credits back at their initial count)
        does not hold.
        """
        rt = self._rt
        me = rt.rank
        team = self.quiesce_team
        self.flush()
        owed = self._settle(self._sent_updates, "applied_updates", "agg::quiesce")
        applied = self.applied_updates
        if team is rt.team_world() and applied != owed:
            # the ledger: with every peer alive, each counted send is
            # applied exactly once
            raise UpcxxError(
                f"AggStore.quiesce: rank {me} applied {applied} updates, "
                f"the world owes it {owed}"
            )
        if self.cache_capacity > 0:
            # all data batches are applied everywhere, so every
            # invalidation that will ever be generated is now queued
            self.flush_invals()
            self._settle(self._sent_invals, "applied_invals", "agg::quiesce-inv")
        if self._wants_ack:
            rt.wait_quiet(
                lambda: self.acks_received + self.acks_forgiven >= self.batches_sent,
                "agg::quiesce-ack",
            )
            barrier(team=team)
        if self._credits is not None:
            # the credit law: every batch's ack returned exactly one credit
            init = self._credits_init
            off = [(p, c) for p, c in enumerate(self._credits) if c != init]
            if off:
                raise UpcxxError(
                    f"AggStore.quiesce: rank {me} credits not home after the "
                    f"ack drain: {off} init {init}"
                )

    def _settle(self, sent, applied: str, reason: str) -> int:
        """One counting round: all-reduce the per-destination ``sent``
        counts, wait until the counter named ``applied`` reaches what this
        rank is owed, and seal with a barrier.  Returns the amount owed.

        ``>=``: a since-dead sender's pre-crash deliveries are not in the
        alive-team expectation, so applied may legitimately overshoot.
        """
        team = self.quiesce_team
        counts = np.array(sent, dtype=np.int64)
        expected = reduce_all(counts, lambda a, b: a + b, team=team).wait()
        owed = int(expected[self._rt.rank])
        self._rt.wait_quiet(lambda: getattr(self, applied) >= owed, reason)
        barrier(team=team)
        return owed

    # ------------------------------------------------------------- queries
    def local_items(self) -> dict:
        return dict(self.data)

    def local_size(self) -> int:
        return len(self.data)

    def stats(self) -> dict:
        """Deterministic per-rank counters (JSON-ready)."""
        return {
            "batches_sent": self.batches_sent,
            "updates_sent": self.updates_sent,
            "updates_combined": self.updates_combined,
            "invals_sent": sum(self._sent_invals),
            "sharers_registered": self.sharers_registered,
            "acks_received": self.acks_received,
            "applied_updates": self.applied_updates,
            "applied_batches": self.applied_batches,
            "applied_invals": self.applied_invals,
            "reads_served": self.reads_served,
            "credit_stalls": self.credit_stalls,
            "credit_stall_s": self.credit_stall_s,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "reads_coalesced": self.reads_coalesced,
            "read_batches": self.read_batches,
            "cache_invalidations": self.cache_invalidations,
            "acks_forgiven": self.acks_forgiven,
            "acks_ignored": self.acks_ignored,
            "updates_dropped": self.updates_dropped,
            "cache_purges": self.cache_purges,
        }
