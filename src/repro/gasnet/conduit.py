"""The conduit: GASNet-EX-style data movement over the simulated wire.

The conduit owns per-rank *endpoints* (shared segment + AM inbox + NIC
injection state) and implements the four hardware services the paper's
runtime consumes:

- ``put_nb``   — one-sided RMA put with NIC offload; the handle completes
  when the remote commit has been acknowledged (GASNet "remote completion",
  which is what a blocking ``upcxx::rput(...).wait()`` observes).
- ``get_nb``   — one-sided RMA get; the handle carries the fetched bytes.
- ``am_send``  — active message; delivered into the destination inbox at
  wire arrival (waking the destination if it is blocked), *executed* only
  when the destination polls.  The handle completes at source-side
  injection completion (buffer reusable).
- ``amo``      — remote atomic, NIC-offloaded: the update applies at the
  target segment at arrival time with **no target CPU involvement**,
  mirroring Aries hardware atomics (paper §II).

Timing: each endpoint's NIC serializes injections (``occupancy``); wire
latency is added per the machine topology (intra-node transfers take the
shared-memory path).  The conduit charges **no software CPU time** — the
client layer (UPC++ or MPI) charges its own per-operation software costs,
because that is precisely where the two stacks differ in the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.gasnet.am import AMInbox, AMMessage
from repro.gasnet.handle import GET_SERVICE, PUT_COMMIT, Handle, Transfer
from repro.gasnet.machine import Machine
from repro.gasnet.network import NetworkModel, PATH_FMA
from repro.gasnet.segment import Segment
from repro.sim.coop import Scheduler


class _Endpoint:
    """Per-rank conduit state."""

    __slots__ = (
        "rank",
        "segment",
        "device_segment",
        "inbox",
        "nic_free_at",
        "pcie_free_at",
        "n_puts",
        "n_gets",
        "n_ams",
        "n_amos",
        "bytes_out",
        "n_retx",
        "n_dropped",
        "n_dup",
        "n_acks",
        "agg_batches",
        "agg_updates",
        "agg_credit_stall_s",
        "agg_cache_hits",
        "kv_shed",
        "kv_failover_reads",
        "kv_rereplicated",
    )

    def __init__(self, rank: int, segment_size: int):
        self.rank = rank
        self.segment = Segment(segment_size, owner_rank=rank)
        #: GPU segment, created on demand by ensure_device_segment
        self.device_segment = None
        self.inbox = AMInbox(rank)
        self.nic_free_at = 0.0
        #: host<->device link occupancy (one transfer at a time)
        self.pcie_free_at = 0.0
        self.n_puts = 0
        self.n_gets = 0
        self.n_ams = 0
        self.n_amos = 0
        self.bytes_out = 0
        # reliability-layer counters (all attributed to the initiating
        # endpoint, even for ack frames flowing the other way)
        self.n_retx = 0
        self.n_dropped = 0
        self.n_dup = 0
        self.n_acks = 0
        # aggregation-layer injection accounting (repro.upcxx.aggregator):
        # batches/updates this endpoint coalesced onto the wire, and the
        # simulated time it stalled waiting for per-peer credits
        self.agg_batches = 0
        self.agg_updates = 0
        self.agg_credit_stall_s = 0.0
        self.agg_cache_hits = 0
        # service/replication-layer counters (repro.upcxx.replication and
        # the KV service): admission-control sheds, reads retargeted to a
        # surviving replica, and keys re-shipped to restore the factor
        self.kv_shed = 0
        self.kv_failover_reads = 0
        self.kv_rereplicated = 0


#: atomic ops supported by the simulated NIC (name -> (applies, returns_old))
_AMO_OPS = {
    "add",
    "fetch_add",
    "put",
    "get",
    "cas",
    "min",
    "max",
    "bit_and",
    "bit_or",
    "bit_xor",
}


class Conduit:
    """All endpoints of one job plus the wire model gluing them together."""

    def __init__(
        self,
        sched: Scheduler,
        machine: Machine,
        network: NetworkModel,
        segment_size: int = 32 * 1024 * 1024,
        metrics=None,
        spans=None,
        faults=None,
        telemetry=None,
    ):
        if machine.n_ranks < sched.n_ranks:
            raise ValueError(
                f"machine has {machine.n_ranks} slots but job has {sched.n_ranks} ranks"
            )
        self.sched = sched
        self.machine = machine
        self.network = network
        #: optional repro.util.metrics.Metrics for NIC injection accounting
        self.metrics = metrics if metrics is not None and metrics.enabled else None
        #: optional repro.util.spans.SpanBuffer for causal span tracing;
        #: ops that carry a ``span`` correlation id record their NIC and
        #: wire phases here (passive: no clock reads, no event posts)
        self.spans = spans if spans is not None and spans.enabled else None
        #: optional repro.util.telemetry.Telemetry (windowed rollups +
        #: flight recorder); the conduit records nothing itself — runtimes
        #: read endpoint counters
        self.telemetry = telemetry if telemetry is not None and telemetry.enabled else None
        #: optional repro.sim.faults.FaultPlan; when set, every op routes
        #: through the reliable-delivery layer (seq/ack/retransmit)
        self._faults = faults
        #: per-(sender, receiver) channel state: [next_seq, last_commit_time]
        self._rel_chan: dict = {}
        self.endpoints = [_Endpoint(r, segment_size) for r in range(sched.n_ranks)]
        # hot-path lookup tables: rank -> node (replaces machine.same_node
        # calls per op), the two propagation latencies, and a memo of
        # occupancy(nbytes, path, same_node) keyed by its arguments — real
        # workloads send a handful of distinct sizes millions of times
        self._node = [machine.node_of(r) for r in range(sched.n_ranks)]
        self._lat_net = network.latency_oneway
        self._lat_shm = network.latency_oneway_shm
        self._occ_cache: dict = {}
        # installed by the UPC++ World so the conduit can hand
        # remote_cx::as_rpc work to the *target's* runtime
        self._remote_cx_deliver: Optional[Callable] = None
        sched.register_conduit(self)

    def close(self) -> None:
        """The job is over: give up every segment and unhook from the
        scheduler and the client layer, so nothing here keeps the job (or
        is kept by it) once the caller lets go.

        Segments are dereferenced, never closed: memory goes back by
        reference counting, and a segment whose view a rank returned from
        its body lives until that view does.  Counters stay readable.
        """
        for ep in self.endpoints:
            ep.segment = ep.device_segment = None
        self._remote_cx_deliver = None
        self.sched._conduits.remove(self)

    # -------------------------------------------------------------- accessors
    def segment(self, rank: int) -> Segment:
        return self.endpoints[rank].segment

    def inbox(self, rank: int) -> AMInbox:
        return self.endpoints[rank].inbox

    # --------------------------------------------------------- device memory
    def ensure_device_segment(self, rank: int, size: int) -> Segment:
        """Create (once) and return ``rank``'s GPU segment."""
        ep = self.endpoints[rank]
        if ep.device_segment is None:
            ep.device_segment = Segment(size, owner_rank=rank)
        return ep.device_segment

    def device_segment(self, rank: int) -> Segment:
        ep = self.endpoints[rank]
        if ep.device_segment is None:
            raise RuntimeError(f"rank {rank} has no device segment (create a Device first)")
        return ep.device_segment

    def segment_of(self, rank: int, kind: str) -> Segment:
        """Segment lookup by memory kind."""
        if kind == "host":
            return self.segment(rank)
        if kind == "device":
            return self.device_segment(rank)
        raise ValueError(f"unknown memory kind {kind!r}")

    def pcie_transfer(self, rank: int, nbytes: int, start: float) -> float:
        """Schedule one host<->device staging transfer on ``rank``'s PCIe
        link; returns the completion time (the link serializes transfers)."""
        ep = self.endpoints[rank]
        begin = max(start, ep.pcie_free_at)
        done = begin + self.network.pcie_time(nbytes)
        ep.pcie_free_at = done
        return done

    # ------------------------------------------------------------ wire timing
    def _inject(
        self,
        src: int,
        dst: int,
        nbytes: int,
        path: str,
        start: float,
        occ_scale: float = 1.0,
        span: Optional[tuple] = None,
        kind: str = "op",
    ):
        """Schedule one wire transfer; returns (injection_done, arrival).

        ``occ_scale`` multiplies the injection occupancy; client layers use
        values > 1 to model software pipelines that under-drive the NIC
        (e.g. Cray MPICH's mid-size RMA path in the paper's Fig. 3b).
        ``span``, when given, records the backpressure/occupancy/wire
        phases of this transfer under that correlation id.
        """
        if occ_scale <= 0:
            raise ValueError(f"occ_scale must be positive, got {occ_scale}")
        ep = self.endpoints[src]
        node = self._node
        same = node[src] == node[dst]
        nic_free = ep.nic_free_at
        begin = start if start > nic_free else nic_free
        key = (nbytes, path, same)
        occ = self._occ_cache.get(key)
        if occ is None:
            occ = self._occ_cache[key] = self.network.occupancy(nbytes, path, same)
        occ *= occ_scale
        done = begin + occ
        ep.nic_free_at = done
        ep.bytes_out += nbytes
        arrival = done + (self._lat_shm if same else self._lat_net)
        if self.metrics is not None:
            # wire time = occupancy; backpressure = time spent queued behind
            # earlier injections on this NIC before the wire was free
            self.metrics.rank(src).nic_injected(nbytes, occ, begin - start)
        sp = self.spans
        if sp is not None and span is not None:
            sp.record(start, begin, src, span, "nic_wait", kind, nbytes)
            sp.record(begin, done, src, span, "nic_occ", kind, nbytes)
            sp.record(done, arrival, src, span, "wire", kind, nbytes)
        return done, arrival

    # ------------------------------------------------- reliable delivery
    # With a FaultPlan bound, every conduit op becomes a *reliable channel*
    # transfer: per-(sender,receiver) sequence numbers, receipt acks, and
    # timeout + exponential-backoff retransmission, with in-order commit at
    # the receiver.  Because every fault decision is a pure hash of
    # (plan seed, channel, seq, attempt) — see repro.sim.faults — the whole
    # retransmit ladder is computable at send time: the sender charges each
    # attempt to its NIC (occupancy, backpressure, metrics, retry spans)
    # and then posts exactly ONE commit event and one completion, exactly
    # mirroring the fault-free event structure.  That is what keeps a
    # zero-fault plan bit-identical to ``faults=None``.
    def _rel_ladder(
        self,
        snd: int,
        rcv: int,
        nbytes: int,
        path: str,
        start: float,
        occ_scale: float,
        span,
        kind: str,
        ack_lat: float,
        phases: tuple,
    ):
        """Run one reliable-channel transfer analytically.

        Charges every transmission attempt to ``snd``'s NIC and returns
        ``(done0, commit_at, ack_recv)``:

        - ``done0``     — injection-done time of the *first* attempt
          (source-buffer-reusable point, e.g. AM source completion);
        - ``commit_at`` — when the frame commits in-order at the receiver
          (``None`` if the receiver crashed before any attempt landed);
        - ``ack_recv``  — when the sender observes the commit acknowledged
          (``None`` if no ack ever survived, e.g. receiver died mid-ladder).
        """
        plan = self._faults
        ep = self.endpoints[snd]
        chan = self._rel_chan.get((snd, rcv))
        if chan is None:
            chan = self._rel_chan[(snd, rcv)] = [0, 0.0]
        seq = chan[0]
        chan[0] = seq + 1
        node = self._node
        same = node[snd] == node[rcv]
        key = (nbytes, path, same)
        occ = self._occ_cache.get(key)
        if occ is None:
            occ = self._occ_cache[key] = self.network.occupancy(nbytes, path, same)
        occ *= occ_scale
        lat = self._lat_shm if same else self._lat_net
        rto = plan.rto_for(lat, ack_lat)
        cutoff = plan.crash_cutoff(rcv)
        mrank = self.metrics.rank(snd) if self.metrics is not None else None
        sp = self.spans if span is not None else None
        inf = float("inf")
        acked_at = inf
        first_arrival = None
        done0 = done = start
        n_drop = n_dup = n_ack = 0
        max_retx = plan.max_retx
        t = start
        i = 0
        while True:
            if i > 0:
                # exponential backoff from the previous injection's end
                t = done + rto * (2.0 ** (i - 1))
                if acked_at <= t or i > max_retx:
                    break
            begin = t if t > ep.nic_free_at else ep.nic_free_at
            begin = plan.stall_until(snd, begin)
            done = begin + occ
            ep.nic_free_at = done
            ep.bytes_out += nbytes
            if mrank is not None:
                mrank.nic_injected(nbytes, occ, begin - t)
            if sp is not None:
                if i == 0:
                    sp.record(t, begin, snd, span, phases[0], kind, nbytes)
                    sp.record(begin, done, snd, span, phases[1], kind, nbytes)
                    sp.record(done, done + lat, snd, span, phases[2], kind, nbytes)
                else:
                    sp.record(t, done, snd, span, "retry", kind, nbytes)
            if i == 0:
                done0 = done
            if plan.drops_frame(snd, rcv, seq, i):
                n_drop += 1
            else:
                arrival = done + lat + plan.jitter_of(snd, rcv, seq, i)
                if arrival <= cutoff:
                    if first_arrival is None or arrival < first_arrival:
                        first_arrival = arrival
                    if plan.duplicates(snd, rcv, seq, i):
                        n_dup += 1
                    if plan.drops_ack(snd, rcv, seq, i):
                        n_drop += 1
                    else:
                        n_ack += 1
                        ack_at = arrival + ack_lat + plan.ack_jitter_of(snd, rcv, seq, i)
                        if ack_at < acked_at:
                            acked_at = ack_at
            i += 1
        if first_arrival is None:
            commit_at = None
        else:
            # in-order commit: a late first delivery (jitter/retransmit)
            # cannot overtake an earlier frame already committed on this
            # channel; fault-free arrivals are already nondecreasing, so
            # the clamp is a no-op then
            last = chan[1]
            commit_at = first_arrival if first_arrival > last else last
            chan[1] = commit_at
        if commit_at is not None and acked_at < inf:
            ack_recv = commit_at + ack_lat
            if acked_at > ack_recv:
                ack_recv = acked_at
        else:
            ack_recv = None
        ep.n_retx += i - 1
        ep.n_dropped += n_drop
        ep.n_dup += n_dup
        ep.n_acks += n_ack
        if mrank is not None:
            mrank.rel_update(i - 1, n_drop, n_dup, n_ack)
        return done0, commit_at, ack_recv

    def _send(self, src, dst, nbytes, path, now, occ_scale, span, kind, ack_bytes=None):
        """Time one ``src`` -> ``dst`` transfer injected at ``now``: one NIC
        injection, or under a fault plan the reliable channel's whole
        ladder.  Every operation's forward leg comes through here, so each
        is written once for both modes.  Returns what :meth:`_rel_ladder`
        does: ``(inj_done, commit_at, ack_at)`` — source buffer reusable,
        frame landed at ``dst`` (None: it crashed first), commit seen
        acknowledged at ``src`` (None: no ack survives).  Acknowledged ops
        pass ``ack_bytes`` to have the ack's ``ack_wire`` span recorded."""
        node = self._node
        lat = self._lat_shm if node[src] == node[dst] else self._lat_net
        if self._faults is None:
            inj_done, commit_at = self._inject(src, dst, nbytes, path, now, occ_scale, span, kind)
            # remote commit is instantaneous; the ack rides one latency back
            ack_from, ack_at = commit_at, commit_at + lat
        else:
            inj_done, commit_at, ack_at = self._rel_ladder(
                src, dst, nbytes, path, now, occ_scale, span,
                kind, lat, ("nic_wait", "nic_occ", "wire"),
            )
            ack_from = None if ack_at is None else ack_at - lat
        if ack_bytes is not None and span is not None and self.spans is not None and ack_at is not None:
            self.spans.record(ack_from, ack_at, src, span, "ack_wire", kind, ack_bytes)
        return inj_done, commit_at, ack_at

    # ------------------------------------------------------------- put / get
    def put_nb(
        self,
        src: int,
        dst: int,
        dst_off: int,
        data,
        path: str = PATH_FMA,
        occ_scale: float = 1.0,
        remote_rpc: Optional[tuple] = None,
        span: Optional[tuple] = None,
    ) -> Handle:
        """One-sided put of ``data`` into ``dst``'s segment at ``dst_off``.

        Rank context (must be called by rank ``src``).  The returned handle
        completes at ack time (remote commit acknowledged).
        ``remote_rpc``, if given, is a ``(fn, args, t_active)`` triple run
        at the target the instant the bytes land (UPC++
        ``remote_cx::as_rpc`` piggybacking).  ``span`` is the client's span
        correlation id.
        """
        data = bytes(data)
        return self.put(
            Transfer(self, src, "put", dst, dst_off, len(data), data, path, occ_scale, remote_rpc, span),
            self.sched.now(),
        )

    def put(self, x: Transfer, now: float) -> Transfer:
        """Inject the put ``x`` describes at rank clock ``now`` (rank
        context): charge the NIC — or, under a fault plan, run the reliable
        channel's retransmit ladder — and post the commit event."""
        src, dst, nbytes, span = x.src, x.dst, x.nbytes, x.sid
        self.endpoints[src].n_puts += 1
        _, commit_at, ack_at = self._send(src, dst, nbytes, x.path, now, x.occ_scale, span, "put", nbytes)
        if commit_at is None:
            # receiver crashed before any attempt landed; the op can never
            # complete — crash detection (RankDeadError) unblocks the caller
            return x
        x.phase = PUT_COMMIT
        x.t_commit = commit_at
        x.t_ack = ack_at
        self.sched.post_at(commit_at, x)
        return x

    def get_nb(
        self,
        src: int,
        dst: int,
        dst_off: int,
        nbytes: int,
        path: str = PATH_FMA,
        occ_scale: float = 1.0,
        span: Optional[tuple] = None,
    ) -> Handle:
        """One-sided get of ``nbytes`` from ``dst``'s segment at ``dst_off``.

        The handle completes when the data lands back at ``src``; the bytes
        are available as ``handle.data``.
        """
        return self.get(
            Transfer(self, src, "get", dst, dst_off, nbytes, None, path, occ_scale, None, span),
            self.sched.now(),
        )

    def get(self, x: Transfer, now: float) -> Transfer:
        """Inject the get ``x`` describes at rank clock ``now``: the request
        is a small control message (over the forward channel's ladder under
        a fault plan); the target half is :meth:`_get_reply`."""
        src, dst, span = x.src, x.dst, x.sid
        self.endpoints[src].n_gets += 1
        _, req_at, _ = self._send(src, dst, self.network.header_bytes, PATH_FMA, now, 1.0, span, "get")
        if req_at is None:
            return x
        x.phase = GET_SERVICE
        x.t_commit = req_at
        self.sched.post_at(req_at, x)
        return x

    def _get_reply(self, src, dst, dst_off, nbytes, path, occ_scale, span, t_req):
        """Target half of a get, at request-commit time ``t_req`` (network
        context, ``dst``'s process): the destination NIC reads memory and
        streams the reply.  Returns ``(back, data)``: when the reply lands
        at ``src`` (None if no attempt ever does) and the bytes read."""
        dst_ep = self.endpoints[dst]
        data = dst_ep.segment.read(dst_off, nbytes)
        node = self._node
        same = node[src] == node[dst]
        lat = self._lat_shm if same else self._lat_net
        if self._faults is not None:
            _, back, _ = self._rel_ladder(
                dst, src, nbytes, path, t_req, occ_scale, span, "get", lat,
                ("remote_nic_wait", "remote_occ", "wire_back"),
            )
            return back, data
        begin = max(t_req, dst_ep.nic_free_at)
        key = (nbytes, path, same)
        occ = self._occ_cache.get(key)
        if occ is None:
            occ = self._occ_cache[key] = self.network.occupancy(nbytes, path, same)
        occ *= occ_scale
        dst_ep.nic_free_at = begin + occ
        back = begin + occ + lat
        if self.metrics is not None:
            # the reply stream occupies the *destination* NIC
            self.metrics.rank(dst).nic_injected(nbytes, occ, begin - t_req)
        sp = self.spans
        if sp is not None and span is not None:
            sp.record(t_req, begin, dst, span, "remote_nic_wait", "get", nbytes)
            sp.record(begin, begin + occ, dst, span, "remote_occ", "get", nbytes)
            sp.record(begin + occ, back, dst, span, "wire_back", "get", nbytes)
        return back, data

    # -------------------------------------------------------------------- AM
    def am_send(
        self,
        src: int,
        dst: int,
        tag: str,
        payload: Any,
        nbytes: int,
        path: str = PATH_FMA,
        token: Any = None,
        meta: Optional[dict] = None,
        occ_scale: float = 1.0,
        span: Optional[tuple] = None,
    ) -> Handle:
        """Send an active message; handle completes at source injection end.

        The destination is woken at arrival so a rank blocked in ``wait()``
        (user-level progress) can process the message; a rank that is busy
        computing will only see it at its next progress call.  ``span``
        rides the message metadata (``msg_meta["sid"]``) so the target's
        progress engine can correlate inbox dwell and dispatch.
        """
        sched = self.sched
        now = sched.now()
        self.endpoints[src].n_ams += 1
        handle = Handle(("am", src, dst, tag, nbytes))
        inj_done, arrival, _ = self._send(src, dst, nbytes, path, now, occ_scale, span, "am")
        msg_meta = dict(meta) if meta else None
        if self.metrics is not None:
            # lets the receiver account wire time (active -> complete dwell)
            if msg_meta is None:
                msg_meta = {}
            msg_meta["t_injected"] = now
        if span is not None and self.spans is not None:
            if msg_meta is None:
                msg_meta = {}
            msg_meta["sid"] = span
        if arrival is not None:  # else the receiver crashed before any attempt landed
            msg = AMMessage.acquire(src, dst, tag, payload, nbytes, arrival, token, msg_meta)
            inbox = self.endpoints[dst].inbox

            def deliver():
                inbox.deliver(msg)
                sched.wake(dst, arrival)

            sched.post_at(arrival, deliver)
        sched.post_at(inj_done, lambda: handle.complete(inj_done))
        return handle

    # ------------------------------------------------------------- accumulate
    def accumulate_nb(
        self,
        src: int,
        dst: int,
        dst_off: int,
        data,
        dtype,
        op: str = "+",
        path: str = PATH_FMA,
        occ_scale: float = 1.0,
        span: Optional[tuple] = None,
    ) -> Handle:
        """Element-wise remote accumulate (MPI_Accumulate-class operation).

        The update applies at the target at arrival time with no target CPU
        (modeling the NIC/async-agent path Cray MPICH uses for passive
        target accumulates).  The handle completes at ack time.
        """
        if op not in ("+", "max", "min", "replace"):
            raise ValueError(f"unsupported accumulate op {op!r}")
        dt = np.dtype(dtype)
        arr = np.ascontiguousarray(np.asarray(data, dtype=dt))
        nbytes = arr.nbytes
        self.endpoints[src].n_amos += 1
        handle = Handle(("acc", op, src, dst, nbytes))
        _, arrival, ack_at = self._send(
            src, dst, nbytes, path, self.sched.now(), occ_scale, span, "acc", nbytes
        )
        if arrival is None:
            return handle
        seg = self.endpoints[dst].segment

        def apply_and_ack():
            self._acc_apply(seg, dst_off, dt, arr, op)
            if ack_at is not None:
                self.sched.post_at(ack_at, lambda: handle.complete(ack_at))

        self.sched.post_at(arrival, apply_and_ack)
        return handle

    @staticmethod
    def _acc_apply(seg: Segment, dst_off: int, dt, arr, op: str) -> None:
        """Apply one accumulate update to a target segment in place."""
        cells = seg.view(dst_off, dt, len(arr))
        if op == "+":
            cells += arr
        elif op == "max":
            np.maximum(cells, arr, out=cells)
        elif op == "min":
            np.minimum(cells, arr, out=cells)
        else:  # replace
            cells[:] = arr

    # ------------------------------------------------------------------- AMO
    def amo(
        self,
        src: int,
        dst: int,
        dst_off: int,
        op: str,
        dtype,
        operands: tuple = (),
        span: Optional[tuple] = None,
    ) -> Handle:
        """NIC-offloaded remote atomic on one element at ``dst_off``.

        Supported ops: add, fetch_add, put, get, cas, min, max, bit_and,
        bit_or, bit_xor.  The handle completes when the result returns to
        the initiator; fetching ops expose the prior value via
        ``handle.data``.
        """
        if op not in _AMO_OPS:
            raise ValueError(f"unsupported atomic op {op!r}")
        dt = np.dtype(dtype)
        self.endpoints[src].n_amos += 1
        handle = Handle(("amo", op, src, dst))
        # the NIC applies the atomic at arrival; the result rides one latency back
        _, arrival, done = self._send(
            src, dst, dt.itemsize + self.network.header_bytes, PATH_FMA, self.sched.now(),
            1.0, span, "amo", dt.itemsize,
        )
        if arrival is None:
            return handle
        seg = self.endpoints[dst].segment

        def apply():
            old = self._amo_apply(seg, dst_off, dt, op, operands)
            if done is not None:
                self.sched.post_at(done, lambda: handle.complete(done, data=old))

        self.sched.post_at(arrival, apply)
        return handle

    @staticmethod
    def _amo_apply(seg: Segment, dst_off: int, dt, op: str, operands: tuple):
        """Apply one atomic to a target segment; returns the prior value."""
        cell = seg.view(dst_off, dt, 1)
        old = cell[0].item()
        if op in ("add", "fetch_add"):
            cell[0] = old + operands[0]
        elif op == "put":
            cell[0] = operands[0]
        elif op == "get":
            pass
        elif op == "cas":
            expected, desired = operands
            if old == expected:
                cell[0] = desired
        elif op == "min":
            cell[0] = min(old, operands[0])
        elif op == "max":
            cell[0] = max(old, operands[0])
        elif op == "bit_and":
            cell[0] = old & operands[0]
        elif op == "bit_or":
            cell[0] = old | operands[0]
        elif op == "bit_xor":
            cell[0] = old ^ operands[0]
        return old

    # ------------------------------------------------------------------ misc
    def peer_send_cutoff(self, rank: int) -> float:
        """Simulated time after which frames addressed to ``rank`` are
        never delivered (``inf`` for a rank that never crashes).

        This is the reliability layer's dead-peer send cutoff surfaced to
        upper layers: the replication/failover machinery
        (:mod:`repro.upcxx.replication`) consults it to decide whether an
        in-flight operation can still land at a peer, without reaching
        into the fault plan itself.
        """
        if self._faults is None:
            return float("inf")
        return self._faults.crash_cutoff(rank)

    def wake_on(self, handle: Handle, rank: int) -> None:
        """Convenience: wake ``rank`` when ``handle`` completes."""
        handle.on_complete(lambda h: self.sched.wake(rank, h.time_done))

    def stats(self) -> dict:
        """Aggregate counters across endpoints."""
        return {
            "puts": sum(e.n_puts for e in self.endpoints),
            "gets": sum(e.n_gets for e in self.endpoints),
            "ams": sum(e.n_ams for e in self.endpoints),
            "amos": sum(e.n_amos for e in self.endpoints),
            "bytes_out": sum(e.bytes_out for e in self.endpoints),
            "frames_retransmitted": sum(e.n_retx for e in self.endpoints),
            "frames_dropped": sum(e.n_dropped for e in self.endpoints),
            "frames_duplicated": sum(e.n_dup for e in self.endpoints),
            "acks": sum(e.n_acks for e in self.endpoints),
            "agg_batches": sum(e.agg_batches for e in self.endpoints),
            "agg_updates": sum(e.agg_updates for e in self.endpoints),
            "agg_credit_stall_s": sum(e.agg_credit_stall_s for e in self.endpoints),
            "kv_shed": sum(e.kv_shed for e in self.endpoints),
            "kv_failover_reads": sum(e.kv_failover_reads for e in self.endpoints),
            "kv_rereplicated": sum(e.kv_rereplicated for e in self.endpoints),
        }
