"""The UPC++ runtime: progress engine and per-rank state.

Faithful to the paper's §III, each rank's :class:`Runtime` keeps the three
unordered operation queues:

- **defQ** — operations in the *deferred* state, not yet handed to GASNet.
  (Injection calls enqueue here; internal progress drains it.)
- **actQ** — operations in the *active* state: handed to the conduit, which
  completes them without further initiator attentiveness (NIC offload).
- **compQ** — operations in the *complete* state: finished transfers whose
  promises await fulfillment, plus **incoming RPCs** awaiting execution.
  compQ is drained **only by user-level progress** — a rank that computes
  without calling ``progress()`` stalls its incoming RPCs and its own
  future callbacks, exactly the attentiveness behavior the paper warns
  about.

Internal progress (which happens on every call into the library) drains
defQ, promotes conduit-completed operations into compQ, and moves due
active messages from the conduit inbox into compQ.  User progress
(``progress()``/``wait()``) additionally *executes* compQ: fulfilling
promises (which runs ``.then`` callbacks inline) and dispatching RPC
bodies.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.gasnet.am import AMMessage
from repro.gasnet.conduit import Conduit
from repro.gasnet.cpumodel import CpuModel
from repro.gasnet.machine import Machine
from repro.gasnet.network import NetworkModel
from repro.sim.coop import Scheduler, current_client, current_scheduler
from repro.sim.errors import RankCrashed
from repro.sim.rng import RankRandom
from repro.upcxx.costs import DEFAULT_COSTS, UpcxxCosts
from repro.upcxx.errors import NotInSpmdError
from repro.upcxx.future import Future


class CompQItem:
    """One entry of compQ: a CPU charge plus a rank-context thunk.

    ``nbytes``/``t_active``/``t_staged`` are optional observability tags:
    payload size, the time the operation became *active* (handed to the
    conduit), and the time its completion was staged for promotion.  They
    feed the op-lifecycle dwell histograms when metrics are enabled and
    cost nothing otherwise.  ``sid``/``t_polled`` are the causal-span
    analogues: the operation's span correlation id and the time an
    inbox-delivered item was polled (the compQ span starts there rather
    than at wire arrival, so the inbox and compQ phases tile instead of
    overlapping).

    Items are single-use (built, executed once by user progress, dead), so
    ``progress()`` recycles them through a free list; hot creators go
    through :meth:`acquire`.  compQ holds anything with these attributes
    and ``fn()``/``release()``: an ``rput``/``rget`` is staged as its own
    operation record (:class:`repro.upcxx.rma.RmaOp`), not wrapped in one.
    """

    __slots__ = ("cost", "fn", "kind", "nbytes", "t_active", "t_staged", "sid", "t_polled")

    _pool: list = []
    _POOL_MAX = 256

    def __init__(
        self,
        cost: float,
        fn: Callable[[], None],
        kind: str = "op",
        nbytes: int = 0,
        t_active: Optional[float] = None,
        t_staged: Optional[float] = None,
        sid: Optional[tuple] = None,
    ):
        self.cost = cost  # seconds, already platform-scaled
        self.fn = fn
        self.kind = kind
        self.nbytes = nbytes
        self.t_active = t_active
        self.t_staged = t_staged
        self.sid = sid
        self.t_polled: Optional[float] = None

    @classmethod
    def acquire(
        cls,
        cost: float,
        fn: Callable[[], None],
        kind: str = "op",
        nbytes: int = 0,
        t_active: Optional[float] = None,
        t_staged: Optional[float] = None,
        sid: Optional[tuple] = None,
    ) -> "CompQItem":
        """Pooled constructor: reuse an executed item when one is free."""
        pool = cls._pool
        if pool:
            item = pool.pop()
            item.cost = cost
            item.fn = fn
            item.kind = kind
            item.nbytes = nbytes
            item.t_active = t_active
            item.t_staged = t_staged
            item.sid = sid
            item.t_polled = None
            return item
        return cls(cost, fn, kind, nbytes, t_active, t_staged, sid)

    def release(self) -> None:
        """Return this executed item to the free list (caller owns it)."""
        pool = self._pool
        if len(pool) < self._POOL_MAX:
            self.fn = None
            pool.append(self)


class _Deferred:
    """A defQ entry that wraps an injector closure (RPC, VIS, atomics).

    defQ entries are objects with ``kind``/``nbytes``/``t_enq`` tags and an
    ``inject()`` body; ``rput``/``rget`` queue their operation record
    itself (:class:`repro.upcxx.rma.RmaOp`)."""

    __slots__ = ("inject", "kind", "nbytes", "t_enq")

    def __init__(self, inject: Callable[[], None], kind: str, nbytes: int, t_enq: float):
        self.inject = inject
        self.kind = kind
        self.nbytes = nbytes
        self.t_enq = t_enq


class World:
    """Per-job UPC++ state shared by all ranks (conduit, registries)."""

    def __init__(
        self,
        sched: Scheduler,
        machine: Machine,
        network: NetworkModel,
        cpu: CpuModel,
        costs: UpcxxCosts = DEFAULT_COSTS,
        segment_size: int = 32 * 1024 * 1024,
        seed: int = 0,
        metrics=None,
        spans=None,
        faults=None,
        telemetry=None,
    ):
        self.sched = sched
        self.machine = machine
        self.network = network
        self.cpu = cpu
        self.costs = costs
        self.seed = seed
        #: optional repro.util.metrics.Metrics collecting op-lifecycle data
        self.metrics = metrics if metrics is not None and metrics.enabled else None
        #: optional repro.util.spans.SpanBuffer collecting causal spans
        self.spans = spans if spans is not None and spans.enabled else None
        #: optional repro.util.telemetry.Telemetry (windowed rollups +
        #: flight recorder); same gating discipline as metrics/spans
        self.telemetry = telemetry if telemetry is not None and telemetry.enabled else None
        if (
            self.telemetry is not None
            and faults is not None
            and faults.crashes
            and not faults.survivable
        ):
            # freeze rings/windows at the first crash time so the
            # post-mortem bundle shows the job at the moment of death.
            # Survivable plans keep recording: the post-crash windows are
            # the story there.
            self.telemetry.freeze_at = min(faults.crashes.values())
        if faults is not None and faults.survivable:
            # return results instead of re-raising the recorded death at
            # end of run
            sched._survivable = True
        #: optional repro.sim.faults.FaultPlan (chaos injection)
        self.faults = faults
        self.conduit = Conduit(
            sched, machine, network, segment_size, metrics=self.metrics,
            spans=self.spans, faults=faults, telemetry=self.telemetry,
        )
        self.conduit._remote_cx_deliver = self._deliver_remote_cx
        self.n_ranks = sched.n_ranks
        self.runtimes: List[Optional["Runtime"]] = [None] * self.n_ranks
        #: next team uid (uids are assigned collectively & deterministically)
        self.team_uid_seq = 1  # 0 is reserved for world

    def close(self) -> None:
        """The job is over: close the conduit and every rank's runtime, so
        that reference counting alone frees the job at ``run_spmd`` return."""
        self.conduit.close()
        for rt in self.runtimes:
            if rt is not None:
                rt.close()
        self.runtimes = []

    def _deliver_remote_cx(
        self, dst_rank: int, fn, args, nbytes: int, t_active: float, arrival: float,
        sid: Optional[tuple] = None,
    ) -> None:
        """Hand a remote_cx::as_rpc to ``dst_rank``'s runtime (network
        context, at the process that owns ``dst_rank``).

        Called by the conduit when a put's bytes land; the RPC is staged on
        the target's compQ and the target woken, exactly as if the target
        had received it locally.  ``sid`` threads the initiating put's
        span correlation id through to the target-side execution spans.
        """
        target_rt = self.runtimes[dst_rank]
        item = CompQItem.acquire(
            target_rt._c_rpc_dispatch,
            lambda: fn(*args),
            "remote_cx_rpc",
            nbytes=nbytes,
            t_active=t_active,
            sid=sid,
        )
        target_rt.gasnet_completed(item, arrival)
        self.sched.wake(dst_rank, arrival)


class Runtime:
    """One rank's view of the UPC++ library."""

    def __init__(self, world: World, rank: int):
        self.world = world
        self.rank = rank
        self.sched = world.sched
        self.cpu = world.cpu
        self.costs = world.costs
        self.conduit = world.conduit
        self.rng = RankRandom(world.seed, rank, salt="upcxx")
        #: per-rank metrics sink (None when observability is off)
        self.metrics = world.metrics.rank(rank) if world.metrics is not None else None
        #: causal span buffer (None when span tracing is off)
        self.spans = world.spans
        #: per-rank telemetry sink (None when telemetry is off); the
        #: endpoint reference feeds NIC/reliability/agg counters into
        #: rollup snapshots without touching the conduit hot path
        self.telemetry = world.telemetry.rank(rank) if world.telemetry is not None else None
        self._ep = world.conduit.endpoints[rank]
        #: per-rank span-id counter; sids are (rank, seq), minted in rank
        #: context in program order
        self._span_seq = 0
        #: scheduler trace buffer (records only when the buffer is enabled)
        self._trace = world.sched.trace
        #: this rank's AM inbox (cached; hot-path polled every progress)
        self._inbox = world.conduit.inbox(rank)

        # Precomputed platform-scaled charges for the per-op hot path.
        # cpu.t(base) is a single multiply, so memoizing the product here
        # is bit-identical to charging cpu.t(costs.x) at each call site.
        cpu = world.cpu
        costs = world.costs
        self._c_progress_poll = cpu.t(costs.progress_poll)
        self._c_rpc_inject = cpu.t(costs.rpc_inject)
        self._c_rpc_reply_inject = cpu.t(costs.rpc_reply_inject)
        self._c_rma_inject = cpu.t(costs.rma_inject)
        self._c_completion = cpu.t(costs.completion)
        self._c_rpc_dispatch = cpu.t(costs.rpc_dispatch)
        self._c_then_dispatch = cpu.t(costs.then_dispatch)
        #: memo of copy_time(nbytes) — workloads reuse a few payload sizes
        self._copy_cache: dict = {}

        # §III queues
        self.defQ: deque = deque()  # _Deferred or op record
        self.actQ: dict = {}  # opid -> description, or an op record that prints as one
        self.compQ: deque = deque()  # CompQItem or op record
        #: network-context staging area: conduit-completed ops waiting for
        #: the next internal progress to be promoted into compQ
        self._gasnet_done: deque = deque()
        #: fulfilled rput/rget records awaiting reuse (repro.upcxx.rma)
        self._op_pool: list = []

        self._op_seq = 0
        #: outstanding RPC replies: token -> callable(result)
        self.reply_table: dict = {}
        self._token_seq = 0

        #: dist_object registry: (team_uid, index) -> DistObject; plus
        #: deferred RPCs waiting for a dist_object to be constructed
        self.dist_objects: dict = {}
        self.dist_waiters: dict = {}
        self.dist_creation_seq: dict = {}  # team_uid -> next index

        #: collectives state (epoch counters etc.), keyed by team uid
        self.coll_state: dict = {}

        #: teams known to this rank: uid -> Team
        self.teams: dict = {}

        # counters
        self.n_rputs = 0
        self.n_rgets = 0
        self.n_rpcs_sent = 0
        self.n_rpcs_executed = 0
        self.n_progress_calls = 0

        #: simulated time at which this rank dies (fault injection); None
        #: while alive.  Checked on every call into the library.
        self._crash_at: Optional[float] = None
        plan = world.faults
        if plan is not None and rank in plan.crashes:
            self._arm_crash(plan, plan.crashes[rank])

        world.runtimes[rank] = self

    def close(self) -> None:
        """Empty the registries and queues: teams, dist_objects, the master
        persona, collectives cut short by an abort (promise -> continuation
        -> state -> promise) and queued continuations all point back here."""
        for st in self.coll_state.values():
            st.clear()
        for held in (
            self.teams, self.dist_objects, self.dist_waiters, self.coll_state,
            self.reply_table, self.actQ, self.defQ, self.compQ, self._gasnet_done,
            self._op_pool,
        ):
            held.clear()
        self.__dict__.pop("_master_persona", None)

    # ---------------------------------------------------------- fault crashes
    def _arm_crash(self, plan, t_die: float) -> None:
        """Schedule this rank's fail-stop death and its detection.

        Two events, both posted in rank context at clock 0:

        - *die* at ``t_die``: marks the rank dead (fail-stop — the next call
          into the library raises the internal :class:`RankCrashed` control
          exception and the rank's fiber simply stops) and records
          the :class:`RankDeadError` for the end-of-run verdict.
        - *detect* at ``t_die + detect_timeout``: the simulated heartbeat
          timeout fires on the survivors; unless the run already failed,
          the scheduler aborts every rank with :class:`RankDeadError` so
          blocked collectives/waits never hang.

        Under a *survivable* plan the detect event instead notifies the
        scheduler's death listeners (``Scheduler._notify_dead``) and the
        run keeps going.  Because execution continues past detection, the
        detect event's place among same-instant events matters: it is
        armed under the synthetic stamp ``(0.0, rank, 0)`` — disjoint from
        every organically minted stamp (rank-context seqs start at 1).
        """
        rank = self.rank
        sched = self.sched
        err = plan.dead_error(rank)

        def die() -> None:
            self._crash_at = t_die
            sched._dead_ranks[rank] = err
            # kick the rank so a blocked fiber re-enters the library and
            # observes its own death instead of sleeping forever
            sched.wake(rank, t_die)

        sched.post_at(t_die, die)
        t_detect = t_die + plan.detect_timeout
        if plan.survivable:

            def detect() -> None:
                sched._notify_dead(rank, err, t_detect)

            sched.post_keyed(t_detect, (0.0, rank, 0), detect)
        else:

            def detect() -> None:
                if sched._failure is None:
                    sched._fail(err)

            sched.post_at(t_detect, detect)

    # ----------------------------------------------------------- telemetry
    def _pending_snapshot(self) -> dict:
        """JSON-safe snapshot of this rank's in-flight operation state.

        Feeds the blackbox pending-op table: queue depths plus a bounded
        sample of operation descriptions (rank-local state read in program
        order).
        """
        from repro.util.telemetry import _PENDING_DETAIL

        return {
            "defQ": len(self.defQ),
            "actQ": len(self.actQ),
            "actQ_ops": [str(v) for v in list(self.actQ.values())[:_PENDING_DETAIL]],
            "compQ": len(self.compQ),
            "compQ_kinds": [it.kind for it in list(self.compQ)[:_PENDING_DETAIL]],
            "staged": len(self._gasnet_done),
            "replies": len(self.reply_table),
        }

    def _telemetry_finalize(self) -> None:
        """Close the final (partial) rollup window at normal completion."""
        tel = self.telemetry
        if tel is not None:
            tel.finalize(
                self.sched.now(),
                (len(self.defQ), len(self.actQ), len(self.compQ), len(self._gasnet_done)),
                self._ep,
            )

    # --------------------------------------------------------------- charges
    def charge_sw(self, base_seconds: float) -> None:
        """Charge a Haswell-calibrated software cost, platform-scaled."""
        self.sched.charge(self.cpu.t(base_seconds))

    def charge_copy(self, nbytes: int) -> None:
        """Charge a CPU copy/serialization of ``nbytes``."""
        if nbytes > 0:
            self.sched.charge(self.copy_time(nbytes))

    def copy_time(self, nbytes: int) -> float:
        """Memoized ``cpu.copy_time`` (same division, computed once/size)."""
        t = self._copy_cache.get(nbytes)
        if t is None:
            t = self._copy_cache[nbytes] = self.cpu.copy_time(nbytes)
        return t

    def compute(self, seconds: float) -> None:
        """Model application computation (no progress happens inside)."""
        self.sched.charge(seconds)

    def now(self) -> float:
        return self.sched.now()

    # ------------------------------------------------------------ op plumbing
    def next_op_id(self) -> int:
        self._op_seq += 1
        return self._op_seq

    def next_token(self) -> int:
        self._token_seq += 1
        return self._token_seq

    def next_span_sid(self) -> tuple:
        """Mint the next span correlation id (only called when spans on)."""
        self._span_seq += 1
        return (self.rank, self._span_seq)

    def enqueue_deferred(self, injector: Callable[[], None], kind: str = "op", nbytes: int = 0) -> None:
        """Put an operation in the deferred state (defQ).

        ``kind``/``nbytes`` tag the operation for the metrics layer (op
        counts, byte totals, deferred-dwell histograms); they do not affect
        execution.
        """
        t_enq = self.sched.now() if self.metrics is not None else 0.0
        self.defQ.append(_Deferred(injector, kind, nbytes, t_enq))

    def defer(self, op) -> None:
        """Queue an operation record (``kind``, ``nbytes``, ``inject()``)."""
        op.t_enq = self.sched.now() if self.metrics is not None else 0.0
        self.defQ.append(op)

    def gasnet_completed(self, item: CompQItem, t_complete: Optional[float] = None) -> None:
        """Network context: a conduit op finished; stage for promotion.

        ``t_complete`` is the network-context completion time (e.g. the
        handle's ``time_done``); it stamps the item for complete→fulfilled
        dwell accounting.  Network context must not read a rank clock, so
        the time travels as an explicit argument.
        """
        if t_complete is not None:
            item.t_staged = t_complete
        self._gasnet_done.append(item)

    def enqueue_complete(self, item: CompQItem) -> None:
        """Rank context: place an item directly into compQ."""
        self.compQ.append(item)

    # -------------------------------------------------------------- progress
    def internal_progress(self) -> None:
        """Progress that happens on any call into the library.

        Drains defQ into the conduit, promotes conduit completions into
        compQ, and moves due inbox AMs into compQ.  Does NOT execute compQ.
        """
        tel = self.telemetry
        if self._crash_at is not None:
            if tel is not None:
                # capture the dying rank's in-flight state at its last
                # deterministic point (queue contents as of the previous
                # suspension)
                tel.record_death(
                    self._crash_at, self._pending_snapshot(),
                    (len(self.defQ), len(self.actQ), len(self.compQ), len(self._gasnet_done)),
                    self._ep,
                )
            raise RankCrashed(f"rank {self.rank} crashed at t={self._crash_at!r}")
        # ensure due network events have been delivered at our clock
        sched = self.sched
        sched.checkpoint()
        m = self.metrics
        if m is not None:
            m.sample_queues(
                sched.now(), len(self.defQ), len(self.actQ), len(self.compQ), len(self._gasnet_done)
            )
        if tel is not None:
            tel.tick(
                sched.now(), len(self.defQ), len(self.actQ), len(self.compQ),
                len(self._gasnet_done), self._ep,
            )
        defQ = self.defQ
        while defQ:
            op = defQ.popleft()
            if m is not None:
                m.op_injected(op.kind, op.nbytes, sched.now() - op.t_enq)
            if tel is not None:
                tel.op(op.kind, op.nbytes)
            op.inject()
        compQ = self.compQ
        staged = self._gasnet_done
        while staged:
            compQ.append(staged.popleft())
        # merged inbox drain: head check and pop read the deque directly
        # (arrival times are nondecreasing, exactly what has_due/poll use)
        inbox = self._inbox
        queue = inbox._queue
        if queue:
            now = sched.now()
            trace = self._trace
            sp = self.spans
            dispatch = _AM_DISPATCH
            while queue and queue[0].arrival <= now:
                inbox.n_polled += 1
                msg = queue.popleft()
                handler = dispatch.get(msg.tag)
                if handler is None:
                    raise NotInSpmdError(f"no dispatcher for AM tag {msg.tag!r}")
                if m is not None:
                    m.am_polled(msg.tag, now - msg.arrival)
                if tel is not None:
                    tel.am(now, msg.tag)
                if trace.enabled:
                    trace.record(now, self.rank, "am", msg.tag)
                item = handler(self, msg)
                if item.t_staged is None:
                    item.t_staged = msg.arrival
                if item.t_active is None:
                    meta = msg.meta
                    if meta is not None:
                        item.t_active = meta.get("t_injected")
                if sp is not None:
                    meta = msg.meta
                    msid = None if meta is None else meta.get("sid")
                    if msid is not None:
                        # inbox dwell: wire arrival -> this poll; the compQ
                        # span then starts here so the two phases tile
                        item.sid = msid
                        item.t_polled = now
                        sp.record(msg.arrival, now, self.rank, msid, "inbox", item.kind, msg.nbytes)
                compQ.append(item)
                # the handler captured what it needed from the envelope
                AMMessage.release(msg)
        if m is not None:
            m.sample_queues(
                sched.now(), len(defQ), len(self.actQ), len(compQ), len(staged)
            )

    def progress(self) -> None:
        """User-level progress: also executes compQ to completion."""
        self.n_progress_calls += 1
        m = self.metrics
        sched = self.sched
        if m is not None:
            m.user_progress(sched.now())
        sched.charge(self._c_progress_poll)
        self.internal_progress()
        compQ = self.compQ
        staged = self._gasnet_done
        trace = self._trace
        sp = self.spans
        tel = self.telemetry
        if m is None and sp is None and tel is None and not trace.enabled:
            # Observability off: the execute loop carries zero per-item
            # instrumentation — charge, run, release (the "zero-cost when
            # off" discipline; one sentinel check for the whole drain).
            charge = sched.charge
            while compQ:
                item = compQ.popleft()
                cost = item.cost
                if cost > 0:
                    charge(cost)
                item.fn()
                item.release()
                # completions staged in network context while this item
                # executed must not wait for compQ to drain (see below)
                while staged:
                    compQ.append(staged.popleft())
                if not compQ:
                    self.internal_progress()
            return
        while compQ:
            item = compQ.popleft()
            cost = item.cost
            sid = item.sid if sp is not None else None
            t_exec = sched.now() if sid is not None else 0.0
            if cost > 0:
                sched.charge(cost)
            if m is not None:
                m.op_executed(item, sched.now())
            if trace.enabled:
                trace.record(sched.now(), self.rank, "exec", item.kind)
            if tel is not None:
                tel.exec_note(item.kind)
            item.fn()
            if sid is not None:
                # compQ dwell (attentiveness) then execution software; the
                # exec span absorbs the item's CPU charge and its body
                t_q = item.t_polled
                if t_q is None:
                    t_q = item.t_staged
                if t_q is not None:
                    sp.record(t_q, t_exec, self.rank, sid, "compq", item.kind, item.nbytes)
                sp.record(t_exec, sched.now(), self.rank, sid, "exec_sw", item.kind, item.nbytes)
            item.release()
            # completions staged in network context while this item executed
            # (acks that arrived during its CPU charge or nested injections)
            # must not wait for compQ to drain: promote them immediately so
            # their fulfillment time reflects attentiveness, not queue depth.
            while staged:
                compQ.append(staged.popleft())
            if not compQ:
                # executing items may have injected ops / received arrivals
                self.internal_progress()
        if m is not None:
            m.user_progress_done(sched.now())

    def wait_on(self, fut: Future) -> None:
        """Spin around user progress until ``fut`` is ready (paper: wait)."""
        while not fut.ready():
            self.progress()
            if fut.ready():
                break
            self.sched.block("upcxx::wait")

    def wait_quiet(
        self,
        pred: Callable[[], bool],
        reason: str = "upcxx::quiesce",
        before_park: Optional[Callable[[], None]] = None,
    ) -> None:
        """Progress until an arbitrary predicate holds (library-internal).

        ``before_park`` runs when ``progress()`` has served the inbox, the
        predicate is still false and the rank is about to sleep — the one
        moment it provably has nothing else to do.  The hook may charge
        CPU, so the predicate is checked again after it.
        """
        while not pred():
            self.progress()
            if pred():
                break
            if before_park is not None:
                before_park()
                if pred():
                    break
            self.sched.block(reason)

    # -------------------------------------------------------------- teams
    def team_world(self):
        from repro.upcxx.teams import Team

        team = self.teams.get(0)
        if team is None:
            team = Team(self, uid=0, members=list(range(self.world.n_ranks)))
            self.teams[0] = team
        return team


#: AM tag -> (runtime, msg) -> CompQItem; populated by rpc/collectives
_AM_DISPATCH: dict = {}


def register_am(tag: str, builder: Callable) -> None:
    """Register a compQ-item builder for an AM tag (module initialization)."""
    _AM_DISPATCH[tag] = builder


def current_runtime() -> Runtime:
    """The calling rank's runtime (inside a UPC++ SPMD region).

    Reads the scheduler's per-rank client slot (O(1)); ``rank_env()`` is
    kept in sync by the bootstrap for external introspection.
    """
    rt = current_client()
    if rt is None or not isinstance(rt, Runtime):
        raise NotInSpmdError("UPC++ is not initialized on this rank (use upcxx.run_spmd)")
    return rt
