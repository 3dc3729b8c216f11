"""The conduit: GASNet-EX-style data movement over the simulated wire.

The conduit owns per-rank *endpoints* (shared segment + AM inbox + NIC
injection state) and implements the four hardware services the paper's
runtime consumes:

- ``put``      — one-sided RMA put with NIC offload; its
  :class:`~repro.gasnet.handle.Transfer` completes when the remote commit
  has been acknowledged (GASNet "remote completion", which is what a
  blocking ``upcxx::rput(...).wait()`` observes).  ``put_nb`` builds the
  record from plain arguments.
- ``get``      — one-sided RMA get; the transfer carries the fetched bytes
  (``get_nb``: from plain arguments).
- ``am``       — active message; the :class:`~repro.gasnet.am.AMMessage`
  record lands in the destination inbox at wire arrival (waking the
  destination if it is blocked) and is *executed* only when the
  destination polls.  Its ``injected()`` fires at source-side injection
  completion (buffer reusable).
- ``atomic``   — remote atomic on one element, NIC-offloaded: the update
  applies at the target segment at arrival time with **no target CPU
  involvement**, mirroring Aries hardware atomics (paper §II).

Timing: each endpoint's NIC serializes injections (``occupancy``); wire
latency is added per the machine topology (intra-node transfers take the
shared-memory path).  The conduit charges **no software CPU time** — the
client layer (UPC++ or MPI) charges its own per-operation software costs,
because that is precisely where the two stacks differ in the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.gasnet.am import AMInbox, AMMessage
from repro.gasnet.handle import ATOMIC_APPLY, GET_SERVICE, PUT_COMMIT, Transfer
from repro.gasnet.machine import Machine
from repro.gasnet.network import NetworkModel, PATH_FMA
from repro.gasnet.segment import Segment
from repro.sim.coop import Scheduler
from repro.sim.faults import MAX_RETX


class _Endpoint:
    """Per-rank conduit state: segments, AM inbox, and the NIC and
    reliability ledger (the only counters the wire layer keeps)."""

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
        "n_inj",
        "bytes_out",
        "nic_busy_s",
        "nic_wait_s",
        "n_retx",
        "n_dropped",
        "n_dup",
        "n_acks",
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
        # NIC ledger: frames injected (retransmits included), their bytes,
        # the NIC's occupancy and the time frames queued behind it
        self.n_inj = 0
        self.bytes_out = 0
        self.nic_busy_s = 0.0
        self.nic_wait_s = 0.0
        # reliability-layer counters: a frame's retransmits, drops, dups and
        # acks count on the endpoint that sent it (a get reply's on the target)
        self.n_retx = 0
        self.n_dropped = 0
        self.n_dup = 0
        self.n_acks = 0


#: atomic ops supported by the simulated NIC: name -> the element's new
#: value from (prior value, operands), None to leave it as it is
_AMO_OPS = {
    "add": lambda old, x: old + x[0],
    "fetch_add": lambda old, x: old + x[0],
    "put": lambda old, x: x[0],
    "get": lambda old, x: None,
    "cas": lambda old, x: x[1] if old == x[0] else None,
    "min": lambda old, x: min(old, x[0]),
    "max": lambda old, x: max(old, x[0]),
    "bit_and": lambda old, x: old & x[0],
    "bit_or": lambda old, x: old | x[0],
    "bit_xor": lambda old, x: old ^ x[0],
}


class Conduit:
    """All endpoints of one job plus the wire model gluing them together."""

    def __init__(
        self,
        sched: Scheduler,
        machine: Machine,
        network: NetworkModel,
        segment_size: int = 32 * 1024 * 1024,
        spans=None,
        faults=None,
    ):
        if machine.n_ranks < sched.n_ranks:
            raise ValueError(
                f"machine has {machine.n_ranks} slots but job has {sched.n_ranks} ranks"
            )
        self.sched = sched
        self.machine = machine
        self.network = network
        #: optional repro.util.spans.SpanBuffer for causal span tracing;
        #: ops that carry a ``span`` correlation id record their NIC and
        #: wire phases here (passive: no clock reads, no event posts)
        self.spans = spans
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

    def close(self) -> None:
        """The job is over: give up every segment and unhook from the
        client layer, so nothing here keeps the job (or is kept by it) once
        the caller lets go.

        Segments are dereferenced, never closed: memory goes back by
        reference counting, and a segment whose view a rank returned from
        its body lives until that view does.  Counters stay readable.
        """
        for ep in self.endpoints:
            ep.segment = ep.device_segment = None
            # an unpolled message points back at this conduit
            ep.inbox._queue.clear()
        self._remote_cx_deliver = None

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
    # Every frame crosses the wire here.  With a FaultPlan bound, a frame
    # travels a *reliable channel*: per-(sender,receiver) sequence numbers,
    # receipt acks, and timeout + exponential-backoff retransmission, with
    # in-order commit at the receiver.  Because every fault decision is a
    # pure hash of (plan seed, channel, seq, attempt) — see repro.sim.faults
    # — the whole retransmit ladder is computable at send time: the sender
    # charges each attempt to its NIC (occupancy, backpressure, NIC ledger,
    # retry spans) and the caller posts exactly ONE commit event and one
    # completion, the fault-free event structure.  Fault-free, the ladder
    # stops after its first attempt, which always lands; a zero-rate plan
    # runs that same attempt, so it is simulation-invisible by construction.
    def _transmit(self, snd, rcv, nbytes, path, start, occ_scale, span, kind,
                  phases=("nic_wait", "nic_occ", "wire"), ack_bytes=None):
        """Time one ``snd`` -> ``rcv`` frame injected at ``start`` and
        return ``(done0, commit_at, ack_recv)``:

        - ``done0``     — injection-done time of the *first* attempt
          (source-buffer-reusable point, e.g. AM source completion);
        - ``commit_at`` — when the frame commits in-order at the receiver
          (``None`` if the receiver crashed before any attempt landed);
        - ``ack_recv``  — when the sender observes the commit acknowledged
          (``None`` if no ack ever survived, e.g. receiver died mid-ladder).

        ``occ_scale`` multiplies the injection occupancy; client layers use
        values > 1 to model software pipelines that under-drive the NIC
        (e.g. Cray MPICH's mid-size RMA path in the paper's Fig. 3b).
        ``span``, when given, records the first attempt's backpressure,
        occupancy and wire phases under ``phases``, each retransmit as
        ``retry``, and — for acknowledged ops, which pass ``ack_bytes`` —
        the ack as ``ack_wire``.  Frames count on ``snd``'s endpoint.
        """
        if occ_scale <= 0:
            raise ValueError(f"occ_scale must be positive, got {occ_scale}")
        ep = self.endpoints[snd]
        node = self._node
        same = node[snd] == node[rcv]
        key = (nbytes, path, same)
        occ = self._occ_cache.get(key)
        if occ is None:
            occ = self._occ_cache[key] = self.network.occupancy(nbytes, path, same)
        occ *= occ_scale
        lat = self._lat_shm if same else self._lat_net
        sp = self.spans if span is not None else None
        plan = self._faults
        if plan is not None:
            chan = self._rel_chan.get((snd, rcv))
            if chan is None:
                chan = self._rel_chan[(snd, rcv)] = [0, 0.0]
            seq = chan[0]
            chan[0] = seq + 1
            rto = plan.rto_for(lat, lat)
            cutoff = plan.crash_cutoff(rcv)
            acked_at = inf = float("inf")
            first_arrival = None
            n_drop = n_dup = n_ack = 0
        t = start
        i = 0
        while True:
            nic_free = ep.nic_free_at
            begin = t if t > nic_free else nic_free
            if plan is not None:
                begin = plan.stall_until(snd, begin)
            done = begin + occ
            ep.nic_free_at = done
            ep.n_inj += 1
            ep.bytes_out += nbytes
            ep.nic_busy_s += occ
            ep.nic_wait_s += begin - t
            if sp is not None:
                if i == 0:
                    sp.record(t, begin, snd, span, phases[0], kind, nbytes)
                    sp.record(begin, done, snd, span, phases[1], kind, nbytes)
                    sp.record(done, done + lat, snd, span, phases[2], kind, nbytes)
                else:
                    sp.record(t, done, snd, span, "retry", kind, nbytes)
            if plan is None:
                # the first attempt lands: remote commit is instantaneous
                # and the ack rides one latency back
                commit_at = done + lat
                ack_recv = commit_at + lat
                if ack_bytes is not None and sp is not None:
                    sp.record(commit_at, ack_recv, snd, span, "ack_wire", kind, ack_bytes)
                return done, commit_at, ack_recv
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
                        ack_at = arrival + lat + plan.ack_jitter_of(snd, rcv, seq, i)
                        if ack_at < acked_at:
                            acked_at = ack_at
            i += 1
            # exponential backoff from this injection's end
            t = done + rto * (2.0 ** (i - 1))
            if acked_at <= t or i > MAX_RETX:
                break
        commit_at = ack_recv = None
        if first_arrival is not None:
            # in-order commit: a late first delivery (jitter/retransmit)
            # cannot overtake an earlier frame already committed on this
            # channel
            last = chan[1]
            commit_at = first_arrival if first_arrival > last else last
            chan[1] = commit_at
            if acked_at < inf:
                ack_recv = commit_at + lat
                if acked_at > ack_recv:
                    ack_recv = acked_at
        ep.n_retx += i - 1
        ep.n_dropped += n_drop
        ep.n_dup += n_dup
        ep.n_acks += n_ack
        if ack_bytes is not None and sp is not None and ack_recv is not None:
            sp.record(ack_recv - lat, ack_recv, snd, span, "ack_wire", kind, ack_bytes)
        return done0, commit_at, ack_recv

    # ------------------------------------------------------------- put / get
    def put_nb(
        self,
        src: int,
        dst: int,
        dst_off: int,
        data,
        path: str = PATH_FMA,
        occ_scale: float = 1.0,
    ) -> Transfer:
        """One-sided put of ``data`` into ``dst``'s segment at ``dst_off``.

        Rank context (must be called by rank ``src``).  The returned
        transfer completes at ack time (remote commit acknowledged).
        """
        data = bytes(data)
        return self.put(
            Transfer(self, src, "put", dst, dst_off, len(data), data, path, occ_scale),
            self.sched.now(),
        )

    def put(self, x: Transfer, now: float) -> Transfer:
        """Inject the put ``x`` describes at rank clock ``now`` (rank
        context): charge the NIC — or, under a fault plan, run the reliable
        channel's retransmit ladder — and post the commit event."""
        src, dst, nbytes, span = x.src, x.dst, x.nbytes, x.sid
        self.endpoints[src].n_puts += 1
        _, commit_at, ack_at = self._transmit(src, dst, nbytes, x.path, now, x.occ_scale, span, "put",
                                              ack_bytes=nbytes)
        if commit_at is None:
            # receiver crashed before any attempt landed; the op can never
            # complete — crash detection (RankDeadError) unblocks the caller
            return x
        x.phase = PUT_COMMIT
        x.t_commit = commit_at
        x.t_ack = ack_at
        self.sched.post_at(commit_at, x, dst if x.LOOKAHEAD else None)
        return x

    def get_nb(self, src: int, dst: int, dst_off: int, nbytes: int) -> Transfer:
        """One-sided get of ``nbytes`` from ``dst``'s segment at ``dst_off``.

        The transfer completes when the data lands back at ``src``; the
        bytes are available as ``transfer.data``.
        """
        return self.get(
            Transfer(self, src, "get", dst, dst_off, nbytes, None, PATH_FMA), self.sched.now()
        )

    def get(self, x: Transfer, now: float) -> Transfer:
        """Inject the get ``x`` describes at rank clock ``now``: the request
        is a small control message (over the forward channel's ladder under
        a fault plan); the target half is :meth:`_get_reply`."""
        src, dst, span = x.src, x.dst, x.sid
        self.endpoints[src].n_gets += 1
        _, req_at, _ = self._transmit(src, dst, self.network.header_bytes, PATH_FMA, now, 1.0, span, "get")
        if req_at is None:
            return x
        x.phase = GET_SERVICE
        x.t_commit = req_at
        self.sched.post_at(req_at, x, dst if x.LOOKAHEAD else None)
        return x

    def _get_reply(self, src, dst, dst_off, nbytes, path, occ_scale, span, t_req, seg=None):
        """Target half of a get, at request-commit time ``t_req`` (network
        context, ``dst``'s process): the destination NIC reads ``seg``
        (default: ``dst``'s host segment) and streams the reply.  Returns
        ``(back, data)``: when the reply lands at ``src`` (None if no
        attempt ever does) and the bytes read."""
        data = (self.endpoints[dst].segment if seg is None else seg).read(dst_off, nbytes)
        # the reply is a frame of its own, from the *destination* NIC
        _, back, _ = self._transmit(
            dst, src, nbytes, path, t_req, occ_scale, span, "get",
            ("remote_nic_wait", "remote_occ", "wire_back"),
        )
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
    ) -> AMMessage:
        """Send a bare active message from rank ``src`` (rank context).

        The destination is woken at arrival so a rank blocked in ``wait()``
        (user-level progress) can process the message; a rank that is busy
        computing will only see it at its next progress call.
        """
        return self.am(AMMessage(src, dst, tag, payload, nbytes), self.sched.now(), path)

    def am(self, x: AMMessage, now: float, path: str = PATH_FMA) -> AMMessage:
        """Inject the active message ``x`` at rank clock ``now``: charge the
        NIC (or run the reliable channel's ladder), then post ``x`` at its
        arrival and ``x.injected`` at injection end."""
        src, dst = x.src, x.dst
        self.endpoints[src].n_ams += 1
        inj_done, arrival, _ = self._transmit(src, dst, x.nbytes, path, now, 1.0, x.sid, "am")
        x.conduit = self
        sched = self.sched
        if arrival is not None:  # else the receiver crashed before any attempt landed
            x.arrival = arrival
            sched.post_at(arrival, x, dst)
        sched.post_at(inj_done, x.injected, src)
        return x

    # ---------------------------------------------------------------- atomics
    def atomic(self, x: Transfer, now: float) -> Transfer:
        """Inject the one-element atomic ``x`` (``payload = (op, dtype,
        operands)``, ``op`` one of ``_AMO_OPS``) at rank clock ``now``: the
        target NIC applies it at arrival (``ATOMIC_APPLY``) and the ack,
        carrying the prior value, rides one latency back."""
        src, dst, nbytes = x.src, x.dst, x.nbytes
        self.endpoints[src].n_amos += 1
        # the request carries a header beside its one element
        wire = nbytes + self.network.header_bytes
        _, arrival, ack_at = self._transmit(src, dst, wire, x.path, now, x.occ_scale, x.sid, x.kind,
                                            ack_bytes=nbytes)
        if arrival is None:
            return x
        x.phase = ATOMIC_APPLY
        x.t_ack = ack_at
        self.sched.post_at(arrival, x, dst if x.LOOKAHEAD else None)
        return x

    @staticmethod
    def _atomic_apply(seg: Segment, dst_off: int, payload: tuple):
        """Apply one atomic ``payload = (op, dtype, operands)`` to a target
        segment in place; returns the element's prior value."""
        op, dt, operands = payload
        cell = seg.view(dst_off, dt, 1)
        old = cell[0].item()
        new = _AMO_OPS[op](old, operands)
        if new is not None:
            cell[0] = new
        return old

    # ------------------------------------------------------------------ misc
    def stats(self) -> dict:
        """The endpoints' frame and reliability counters, summed."""
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
        }
