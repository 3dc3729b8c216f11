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

Observers see this engine through the rank's sinks (:mod:`repro.util.sink`),
one per observer passed to ``run_spmd``: each boundary tests the tuple of
the sink methods that watch it once, so with no observer the engine pays
one test per boundary and nothing else.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, List, Optional

from repro.gasnet.conduit import Conduit
from repro.gasnet.cpumodel import CpuModel
from repro.gasnet.machine import Machine
from repro.gasnet.network import NetworkModel
from repro.sim.coop import Scheduler, current_client
from repro.sim.errors import RankCrashed
from repro.sim.rng import RankRandom
from repro.upcxx.costs import DEFAULT_COSTS, UpcxxCosts
from repro.upcxx.errors import NotInSpmdError
from repro.util.sink import Hooks


class CompQItem:
    """One entry of compQ: a CPU charge plus a rank-context thunk.

    ``nbytes``/``t_active``/``t_staged`` are optional observability tags:
    payload size, the time the operation became *active* (handed to the
    conduit), and the time its completion was staged for promotion.  They
    feed the op-lifecycle dwell histograms when metrics are on and cost
    nothing otherwise.  ``sid``/``t_polled`` are the causal-span
    analogues: the operation's span correlation id and the time an
    inbox-delivered item was polled (the compQ span starts there rather
    than at wire arrival, so the inbox and compQ phases tile instead of
    overlapping).

    compQ holds anything with these attributes and ``fn()``: every
    RMA-class operation (``rput``/``rget``, an atomic, a VIS
    operation, a ``copy``) and every RPC request or reply is staged as its
    own operation record (:class:`repro.upcxx.rma.RmaOp` and its
    subclasses, :class:`repro.upcxx.rpc.RpcOp`), not wrapped in one.  An
    item is what is left: an LPC, a team wait, a deferred RPC, a
    ``remote_cx`` body, a death handler.
    """

    __slots__ = ("cost", "fn", "kind", "nbytes", "t_active", "t_staged", "sid", "t_polled")

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
        #: the job's observers (None when absent); each rank gets a sink
        #: from every one present, the scheduler's trace included
        self.metrics = metrics
        self.spans = spans
        self.telemetry = telemetry
        self.observers = tuple(o for o in (metrics, telemetry, sched.trace, spans) if o is not None)
        #: optional repro.sim.faults.FaultPlan (chaos injection)
        self.faults = faults
        #: death listeners (:meth:`on_rank_dead`), run at each detection
        #: under a survivable plan
        self._death_listeners: list = []
        self.conduit = Conduit(sched, machine, network, segment_size, faults=faults)
        self.n_ranks = sched.n_ranks
        self.runtimes: List[Optional["Runtime"]] = [None] * self.n_ranks

    def on_rank_dead(self, fn: Callable[[int, BaseException, float], None]) -> None:
        """Register a death listener for *survivable* fault plans.

        ``fn(rank, err, t_detect)`` runs in network context at the
        heartbeat-detection instant, once per dead rank, in registration
        order (registration happens in rank context during bootstrap, so
        the order — and hence every downstream effect — is deterministic).
        Listeners must follow network-context rules: stage work for rank
        context (e.g. via :meth:`Runtime.gasnet_completed`); never run
        user code or block.
        """
        self._death_listeners.append(fn)

    def close(self) -> None:
        """The job is over: fold the endpoints' NIC and reliability ledgers
        into the metrics, then close the conduit and every rank's runtime
        and drop the death listeners, so that reference counting alone
        frees the job at ``run_spmd`` return."""
        if self.metrics is not None:
            self.metrics.read_endpoints(self.conduit.endpoints)
        self.conduit.close()
        for rt in self.runtimes:
            if rt is not None:
                rt.close()
        self.runtimes = []
        self._death_listeners = []


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
        #: this rank's observer sinks, one per observer; empty when none
        self._sinks = tuple(o.rank(rank) for o in world.observers)
        #: per progress-engine boundary, the sink methods that watch it
        self._on = Hooks(self._sinks)
        #: causal span buffer (None when span tracing is off): the API
        #: calls mint sids when it is on, and :meth:`span` records into it
        self.spans = world.spans
        #: this rank's conduit endpoint (the NIC and reliability ledger
        #: telemetry snapshots)
        self._ep = world.conduit.endpoints[rank]
        #: per-rank span-id counter; sids are (rank, seq), minted in rank
        #: context in program order
        self._span_seq = 0
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
        self._c_atomic_inject = cpu.t(costs.atomic_inject)
        self._c_completion = cpu.t(costs.completion)
        self._c_rpc_dispatch = cpu.t(costs.rpc_dispatch)
        self._c_then_dispatch = cpu.t(costs.then_dispatch)
        #: memo of copy_time(nbytes) — workloads reuse a few payload sizes
        self._copy_cache: dict = {}

        # §III queues
        self.defQ: deque = deque()  # op records
        self.actQ: dict = {}  # opid -> op record (prints as its description)
        self.compQ: deque = deque()  # CompQItem or op record
        #: network-context staging area: conduit-completed ops waiting for
        #: the next internal progress to be promoted into compQ
        self._gasnet_done: deque = deque()

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
        self.n_rpcs_sent = 0
        self.n_rpcs_executed = 0
        self.n_progress_calls = 0
        # service-layer counters, snapshotted by telemetry: the aggregator's
        # batches, updates, credit-stall seconds, cache hits and read
        # batches; the KV service's sheds; replication's failover reads,
        # re-shipped keys and state table
        self.agg_batches = 0
        self.agg_updates = 0
        self.agg_credit_stall_s = 0.0
        self.agg_cache_hits = 0
        self.agg_read_batches = 0
        self.kv_shed = 0
        self.kv_failover_reads = 0
        self.kv_rereplicated = 0
        #: the KV service's replica state table (telemetry copies it at finish)
        self.kv_replica: Optional[dict] = None

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
        ):
            held.clear()
        self.__dict__.pop("_master_persona", None)

    # ---------------------------------------------------------- fault crashes
    def _arm_crash(self, plan, t_die: float) -> None:
        """Schedule this rank's fail-stop death and its detection.

        Two events, both posted in rank context at clock 0:

        - *die* at ``t_die``: marks the rank dead (fail-stop — the next call
          into the library raises the internal :class:`RankCrashed` control
          exception and the rank's fiber simply stops).
        - *detect* at ``t_die + detect_timeout``: the simulated heartbeat
          timeout fires on the survivors.  Under a fatal plan it fails the
          run (:meth:`Scheduler.fail`) with the :class:`RankDeadError`, so
          blocked collectives/waits never hang; when every survivor has
          already returned, the scheduler's end-of-run drain still fires
          it, so the run ends in that error all the same.

        Under a *survivable* plan the detect event instead runs the
        world's death listeners (:meth:`World.on_rank_dead`) and wakes
        every survivor so blocked predicates re-evaluate against the new
        membership (spurious wakes are always legal); the run keeps
        going.  Because execution continues past detection, the detect
        event's place among same-instant events matters: it is armed under
        the synthetic stamp ``(0.0, rank, 0)`` — disjoint from every
        organically minted stamp (rank-context seqs start at 1).
        """
        rank = self.rank
        world = self.world
        sched = self.sched
        err = plan.dead_error(rank)

        def die() -> None:
            self._crash_at = t_die
            # kick the rank so a blocked fiber re-enters the library and
            # observes its own death instead of sleeping forever
            sched.wake(rank, t_die)

        sched.post_at(t_die, die)
        t_detect = t_die + plan.detect_timeout
        if plan.survivable:

            def detect() -> None:
                for fn in world._death_listeners:
                    fn(rank, err, t_detect)
                for r in range(world.n_ranks):
                    if r != rank:
                        sched.wake(r, t_detect)

            sched.post_keyed(t_detect, (0.0, rank, 0), detect)
        else:
            sched.post_at(t_detect, lambda: sched.fail(err))

    def die(self, t_die: float) -> None:
        """Fail-stop: the rank observed its own crash at ``t_die``.  Its
        death sinks see its in-flight state at its last deterministic point
        (queue contents as of the previous suspension); the raised
        :class:`RankCrashed` stops its fiber."""
        for f in self._on.death:
            f(self, t_die)
        raise RankCrashed(f"rank {self.rank} crashed at t={t_die!r}")

    def finish(self) -> None:
        """The body returned: sinks close their books (never on abort: its clock reads vary)."""
        on = self._on.finish
        if on:
            now = self.sched.now()
            for f in on:
                f(self, now)

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

    def span(self, t0: float, phase: str, kind: str, nbytes: int = 0) -> None:
        """Record a service-layer phase ``[t0, now]`` under a fresh sid when
        span tracing is on; nothing otherwise."""
        spans = self.spans
        if spans is not None:
            spans.record(t0, self.sched.now(), self.rank, self.next_span_sid(), phase, kind, nbytes)

    def defer(self, op) -> None:
        """Put an operation record in the deferred state (defQ).

        ``op.kind``/``op.nbytes``/``op.t_enq`` tag it for the sinks (op
        counts, byte totals, deferred-dwell histograms); internal progress
        calls ``op.inject()``.
        """
        op.t_enq = self.sched.now() if self._on.inject else 0.0
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
        if self._crash_at is not None:
            self.die(self._crash_at)
        # ensure due network events have been delivered at our clock
        sched = self.sched
        sched.checkpoint()
        on = self._on.enter
        if on:
            now = sched.now()
            for f in on:
                f(self, now)
        defQ = self.defQ
        on = self._on.inject
        while defQ:
            op = defQ.popleft()
            if on:
                now = sched.now()
                for f in on:
                    f(self, op, now)
            op.inject()
        compQ = self.compQ
        staged = self._gasnet_done
        while staged:
            compQ.append(staged.popleft())
        # merged inbox drain: head check and pop read the deque directly
        # (arrival times are nondecreasing, exactly what has_due/poll use).
        # Every UPC++ AM is an rpc request or reply record (repro.upcxx.rpc):
        # the polled message *is* the compQ item, run by this runtime.
        inbox = self._inbox
        queue = inbox._queue
        if queue:
            now = sched.now()
            on = self._on.poll
            while queue and queue[0].arrival <= now:
                inbox.n_polled += 1
                msg = queue.popleft()
                msg.trt = self
                msg.t_staged = msg.arrival
                for f in on:
                    f(self, msg, now)
                compQ.append(msg)
        on = self._on.leave
        if on:
            now = sched.now()
            for f in on:
                f(self, now)

    def progress(self) -> None:
        """User-level progress: also executes compQ to completion."""
        self.n_progress_calls += 1
        sched = self.sched
        on = self._on.progress_begin
        if on:
            now = sched.now()
            for f in on:
                f(self, now)
        sched.charge(self._c_progress_poll)
        self.internal_progress()
        compQ = self.compQ
        staged = self._gasnet_done
        charge = sched.charge
        observed = self._on.execute or self._on.retire
        while compQ:
            item = compQ.popleft()
            if observed:
                self._execute_observed(item)
            else:
                cost = item.cost
                if cost > 0:
                    charge(cost)
                item.fn()
            # completions staged in network context while this item executed
            # (acks that arrived during its CPU charge or nested injections)
            # must not wait for compQ to drain: promote them immediately so
            # their fulfillment time reflects attentiveness, not queue depth.
            while staged:
                compQ.append(staged.popleft())
            if not compQ:
                # executing items may have injected ops / received arrivals
                self.internal_progress()
        on = self._on.progress_end
        if on:
            now = sched.now()
            for f in on:
                f(self, now)

    def _execute_observed(self, item) -> None:
        """Execute one compQ item between the sinks' ``execute`` (its CPU
        charge applied) and ``retire`` (its body returned) boundaries."""
        sched = self.sched
        on = self._on
        t_exec = sched.now()
        if item.cost > 0:
            sched.charge(item.cost)
        if on.execute:
            now = sched.now()
            for f in on.execute:
                f(self, item, now)
        item.fn()
        if on.retire:
            now = sched.now()
            for f in on.retire:
                f(self, item, t_exec, now)

    def wait_quiet(
        self,
        pred: Callable[[], bool],
        reason: str = "upcxx::quiesce",
        before_park: Optional[Callable[[], None]] = None,
    ) -> None:
        """Progress until ``pred`` holds: ``Future.wait``'s spin around
        user progress, and the library's internal waits.

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


def current_runtime() -> Runtime:
    """The calling rank's runtime (inside a UPC++ SPMD region).

    Reads the scheduler's per-rank client slot (O(1)), which the
    bootstrap sets for the length of the body.
    """
    rt = current_client()
    if rt is None or not isinstance(rt, Runtime):
        raise NotInSpmdError("UPC++ is not initialized on this rank (use upcxx.run_spmd)")
    return rt
