"""Cooperative SPMD runtime over the discrete-event engine.

Every simulated process (*rank*) executes its user function in ordinary
blocking style.  A conservative scheduler enforces the invariant that
**exactly one entity runs at any instant**, and that it is never ahead of
the globally minimal simulated timestamp by the job's *lookahead* ``L``
or more.  With ``L = 0`` (a bare :class:`Scheduler`) the running entity
is always the globally earliest:

- a *rank* with the smallest local clock among ready ranks, or
- a pending *network event* (conduit delivery, completion) that is due no
  later than any ready rank.

``L > 0`` rests on one premise: no rank affects another sooner than ``L``
after its own clock.  In the UPC++ and MPI layers a rank reaches another
only through a conduit frame, which lands at least one one-way latency
after its sender's clock, so ``run_spmd``/``run_mpi`` pass the shorter
one-way latency of their network.  A rank then keeps the baton while it
is less than ``L`` ahead of every ready rank: nothing those ranks have
still to do can reach it sooner.  It fires a due event itself only if
the event names it, or a rank that is not ready behind the event, as
the one whose state it touches; every other event waits for the strict
gate.  Every simulated result is the same at any legal ``L``; only the
number of baton hand-offs drops.

Rank code interacts with the scheduler through four primitives:

``charge(dt)``
    advance my simulated clock by ``dt`` seconds of CPU work, yielding the
    baton if someone else could now reach me (is earlier by ``L`` or
    less) or an event I may not fire is due;
``post(delay, fn, target)`` / ``post_at(t, fn, target)``
    schedule a network-context callback (runs inside the event walk,
    must not block or call user code; an exception it raises fails the
    run) that touches rank ``target``'s state, or any rank's if
    ``target`` is None;
``block(reason)``
    go to sleep until some event calls ``wake`` for me (spurious wake-ups
    are allowed — callers re-check their predicate);
``wake(rank, at_time)``
    make a blocked rank runnable, advancing its clock to at least
    ``at_time`` (network-context only).

Events are heap-keyed by ``(fire_time, causal stamp)``: a post from rank
context is stamped ``(poster clock, poster rank, per-rank seq)``, and a
post made while an event is firing extends the firing event's stamp with
a child index.  The stamp — not a global insertion counter — breaks ties
among events due at the same instant, so the fire order is a pure
function of causality rather than of the order in which the host
happened to run things.  Ranks are resumed in deterministic (clock,
rank) order, so an entire simulation is a pure function of its inputs
and seed.  Only Python objects shared between ranks outside the library
can tell ``L`` apart: they see host order, which may differ from
simulated order by less than ``L``.

There is one scheduler, :class:`Scheduler` (its invariants are on the
class), and it runs in one process: rank bodies run as cooperative
fibers, and a fiber switch hands the baton directly to the next
runnable entity through one raw lock release.  Because pure CPython
cannot switch C stacks, each fiber's suspended call stack is carried by
a parked OS thread; the dispatch structure, not thread elimination, is
what makes switching cheap.  Events fire in one walk, ``_fire``, which
both the running rank's drain and the dispatch of a blocked or finished
rank call.  A yield then swaps itself into the ready heap in place of
the earlier rank and resumes it directly; a dispatch pops the heap;
both end in one ``_resume`` and one park.  A hand-off costs one host
context switch only if the woken carrier waits until its waker has
parked and dropped the GIL.  Linux lets an ordinary woken thread preempt its waker (which
then finds the GIL held and sleeps again), so every carrier makes itself
``SCHED_BATCH``, whose wakeups never preempt; the caller's thread keeps
its policy.  One baton means a second core only adds cross-CPU wake
latency: run long jobs under ``taskset -c N`` (docs/simulator.md §6).
Determinism is checked against a committed artifact, not a second
implementation: this scheduler must reproduce
``tests/golden/fingerprints.json`` exactly.
"""

from __future__ import annotations

import heapq
import os
import threading
import _thread
from typing import Callable, List, Optional

from repro.sim.engine import EventQueue, _INF
from repro.sim.errors import DeadlockError, RankCrashed, RankFailure, SimAbort, SimError
from repro.util.trace import TraceBuffer

# Rank states
_NEW = 0
_READY = 1
_RUNNING = 2
_BLOCKED = 3
_DONE = 4


# ======================================================================
# Carrier threads.  A fiber's suspended stack lives on a parked OS thread;
# every use of ``threading``/``_thread`` in this module is in this block
# (the scheduler below only acquires/releases batons and joins carriers).
# ======================================================================
_tls = threading.local()

# Modest stacks: simulated ranks are shallow (library calls only), and jobs
# may create thousands of rank fibers.
_STACK_BYTES = 512 * 1024


def _baton(held: bool = True):
    """A raw lock; one born held parks its first acquirer until released."""
    lock = _thread.allocate_lock()
    if held:
        lock.acquire()
    return lock


def _carry(sched: "Scheduler", ctl: "_Fiber") -> None:
    try:  # this thread's wakeups stop preempting (module docstring)
        os.sched_setscheduler(0, os.SCHED_BATCH, os.sched_param(0))
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: a hand-off is only slower
    _tls.ctx = (sched, ctl)
    try:
        sched._fiber_main(ctl)
    finally:
        _tls.ctx = None


def _start_carrier(sched: "Scheduler", ctl: "_Fiber") -> None:
    """Create the carrier thread of ``ctl`` and let it run.  ``ctl.thread``
    is set before the start: a fiber counts as started from then on."""
    ctl.thread = threading.Thread(
        target=_carry, args=(sched, ctl), name=f"simrank-{ctl.rid}", daemon=True
    )
    try:
        old_stack = threading.stack_size(_STACK_BYTES)
    except (ValueError, RuntimeError):  # this platform will not resize stacks
        ctl.thread.start()
        return
    try:
        ctl.thread.start()
    finally:
        threading.stack_size(old_stack)


def current_scheduler() -> "Scheduler":
    """The scheduler of the calling rank context."""
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        raise SimError("no active simulation on this thread")
    return ctx[0]


def current_client():
    """The client-layer object attached via :meth:`Scheduler.set_client`.

    O(1) slot read — the hot path for per-operation runtime lookups.
    Returns None if no client is attached; raises :class:`SimError`
    outside a simulation.
    """
    ctx = getattr(_tls, "ctx", None)
    if ctx is None:
        raise SimError("no active simulation on this thread")
    return ctx[1].client


# ======================================================================
# Scheduler state: the per-rank control block
# ======================================================================
class _Fiber:
    """Per-rank control block.

    The fiber's suspended stack is carried by a lazily-started OS thread
    parked on ``baton`` (initially held): releasing the baton resumes the
    fiber; the fiber parks itself by re-acquiring it.
    """

    __slots__ = (
        "rid",
        "state",
        "clock",
        "baton",
        "thread",
        "result",
        "block_reason",
        "pending_wake",
        "woken",
        "client",
    )

    def __init__(self, rid: int):
        self.rid = rid
        self.state = _NEW
        self.clock = 0.0
        self.baton = _baton()  # parked until first dispatch
        self.thread = None  # the carrier, once started
        self.result = None
        self.block_reason = ""
        #: wake timestamps received while not blocked (sticky wakes);
        #: consumed by block() in timestamp order to prevent lost wakeups
        self.pending_wake: list = []
        #: a wake at or before the clock came while RUNNING (its own event
        #: walk): the next block() returns at once, as for a listed one
        self.woken = False
        #: client-layer object (a upcxx Runtime, an mpisim Communicator)
        #: attached via Scheduler.set_client
        self.client = None


def _consume_pending_wakes(sched: Scheduler, me) -> bool:
    """``block()`` prologue: drain sticky wakes in timestamp order.

    Wakes that targeted this rank while it was runnable are kept in
    ``pending_wake``.  Any at or before the rank's clock mean state already
    changed, so ``block()`` returns immediately (a spurious wake; the
    caller re-checks its predicate).  Otherwise the **earliest** future
    wake is converted into a timer so the rank resumes exactly then; later
    ones stay pending for subsequent blocks.  The list is sorted before
    consumption so wakes are always drained in timestamp order regardless
    of arrival order (lost-wakeup guard).

    Returns True if ``block()`` should return without sleeping.
    """
    pending = me.pending_wake
    if len(pending) > 1:
        pending.sort()
    clock = me.clock
    if me.woken or pending[0] <= clock:  # woken: a past wake never listed
        me.woken = False
        me.pending_wake = [t for t in pending if t > clock]
        return True
    t = pending.pop(0)
    rid = me.rid
    sched.post_at(t, lambda: sched.wake(rid, t), rid)
    return False


def _rank_failure(rid: int, exc: BaseException) -> RankFailure:
    """Wrap a rank's exception.  Built here, not in the catching frame:
    that frame is in ``exc``'s traceback, and a local naming the wrapper
    there would close a cycle only a ``gc`` pass could free."""
    failure = RankFailure(rid, f"{type(exc).__name__}: {exc}")
    failure.__cause__ = exc
    return failure


def _event_failure(entry: tuple, exc: BaseException) -> SimError:
    """Wrap the exception of the event ``entry`` (built here, as above).
    No rank is to blame: an event may fire in any rank's context."""
    t, _stamp, _fn, target = entry
    where = "any rank" if target is None else f"rank {target}"
    failure = SimError(f"event at t={t!r} (target: {where}) raised {type(exc).__name__}: {exc}")
    failure.__cause__ = exc
    return failure


# ======================================================================
# The scheduler
# ======================================================================
class Scheduler:
    """The global conservative scheduler for one SPMD job.

    Invariants (enforced by the baton discipline plus the GIL):

    - exactly one entity — the current fiber or a dispatching context —
      executes scheduler code at any instant, so no state needs locking;
    - the running rank's clock is below the earliest READY clock plus
      the lookahead ``L`` (``lookahead``; 0 is the strict schedule, in
      which the running rank is globally earliest), and every event due
      at or before that clock has fired.  ``L`` is legal only if no rank
      can affect another sooner than ``L`` after its own clock: every
      cross-rank effect is an event posted at least ``L`` ahead, so
      nothing a READY rank has still to do can reach a rank that is
      less than ``L`` ahead of it;
    - the ready heap holds exactly one ``(clock, rid)`` entry per READY
      rank (a READY rank's clock does not move): ``wake``, ``run`` and
      a yielding rank push, every switch pops, and an abort empties it;
    - every event names, when it is posted, the rank whose state it
      touches (``target``; None: it may touch any).  Ahead of the
      earliest READY rank, the running rank fires a due event itself
      only if it names the running rank or a rank that is not READY
      behind the event; anything else waits for the strict gate;
    - ``_horizon`` is always ≤ the earliest pending event, the earliest
      READY clock plus ``L``, and ``max_time``, so ``charge()``/
      ``checkpoint()`` may return immediately while the running rank's
      clock stays strictly below it (the fast path: nothing is due and
      no READY rank could reach it).
    """

    def __init__(self, n_ranks: int, trace: Optional[TraceBuffer] = None, max_time: float = 1e6,
                 lookahead: float = 0.0):
        if n_ranks < 1:
            raise ValueError(f"need at least 1 rank, got {n_ranks}")
        if not 0.0 <= lookahead < _INF:
            raise ValueError(f"lookahead must be finite and non-negative, got {lookahead!r}")
        self.n_ranks = n_ranks
        #: L: no rank can affect another sooner than this after its own
        #: clock (class docstring); 0 is the strict schedule
        self.lookahead = lookahead
        # causal-stamp state (see post_at): the stamp of the event
        # currently firing, its running child index, and per-rank post seqs
        self._firing_lane: Optional[tuple] = None
        self._fire_child = 0
        self._post_seq = [0] * n_ranks
        self._events = EventQueue()
        self._eheap = self._events._heap  # direct alias for batched drains
        self._ranks: List[_Fiber] = [_Fiber(r) for r in range(n_ranks)]
        self._ready: list = []  # heap of (clock, rid), one per READY rank
        self._failure: Optional[BaseException] = None
        self._n_done = 0
        self._running = False
        self._aborted = False
        #: block/resume records go here; None when no trace was passed
        self.trace = trace
        self.max_time = max_time
        self.switches = 0
        #: the fiber currently holding the baton (None outside run())
        self._current: Optional[_Fiber] = None
        self._horizon = 0.0
        self._main_baton = _baton()
        self._main_release_guard = _baton(held=False)
        self._fn: Optional[Callable[[int], object]] = None

    # ------------------------------------------------------------------ intro
    def _me(self) -> _Fiber:
        me = self._current
        if me is None:
            raise SimError("not inside a rank of this scheduler")
        return me

    # ------------------------------------------------------------ rank context
    def now(self) -> float:
        """Current rank's simulated clock (seconds)."""
        me = self._current
        if me is None:
            raise SimError("not inside a rank of this scheduler")
        return me.clock

    def charge(self, dt: float) -> None:
        """Advance my clock by ``dt`` seconds of simulated CPU time."""
        if dt < 0:
            raise ValueError(f"negative charge: {dt}")
        me = self._current
        if me is None:
            raise SimError("not inside a rank of this scheduler")
        clock = me.clock + dt
        if clock < self._horizon:
            me.clock = clock
            return  # fast path: nothing due, no READY rank can reach me
        if self.lookahead and clock > self.max_time and self._failure is None:
            # report the overrun from where the strict schedule would: an
            # earlier rank may fail first (_sync_strict)
            self._sync_strict(me)
        me.clock = clock
        if self._failure is not None:
            raise SimAbort()
        if not clock <= self.max_time:  # a NaN clock fails every comparison
            if clock != clock:
                raise ValueError(f"invalid charge: {dt}")
            self.fail(SimError(f"simulated time exceeded max_time={self.max_time}"))
            raise SimAbort()
        self._drain(me, self.lookahead)

    def checkpoint(self) -> None:
        """Deliver due events and yield if another entity could reach me.

        Library code calls this at every synchronization-relevant point
        that does not itself charge time.
        """
        me = self._current
        if me is None:
            raise SimError("not inside a rank of this scheduler")
        if me.clock < self._horizon:
            return
        if self._failure is not None:
            raise SimAbort()
        self._drain(me, self.lookahead)

    def post(self, delay: float, fn: Callable[[], None], target: Optional[int] = None) -> None:
        """Schedule a network-context callback ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"negative delay: {delay}")
        me = self._current
        if me is None:
            raise SimError("not inside a rank of this scheduler")
        self.post_at(me.clock + delay, fn, target)

    def post_at(self, t: float, fn: Callable[[], None], target: Optional[int] = None) -> None:
        """Schedule a network-context callback at absolute time ``t``.

        Callable from network context (events posting follow-on events).
        The heap key is ``(t, causal stamp)``; the stamp (module docstring)
        is minted here, inline, because every conduit operation comes
        through here twice.  ``target`` is the rank whose state ``fn``
        touches, None if it may touch any (class docstring): an event
        that names a rank may fire ahead of the strict frontier.
        """
        if t != t or t < 0 or t == _INF:  # NaN, negative, or inf
            raise ValueError(f"invalid event time: {t!r}")
        if not callable(fn):
            raise TypeError(f"event callback must be callable, got {type(fn).__name__}")
        lane = self._firing_lane
        if lane is not None:
            self._fire_child += 1
            stamp = lane + (self._fire_child,)
        else:
            me = self._current
            if me is None:
                raise SimError("cannot mint an event stamp outside rank/network context")
            rid = me.rid
            seq = self._post_seq[rid] = self._post_seq[rid] + 1
            stamp = (me.clock, rid, seq)
        heapq.heappush(self._eheap, (t, stamp, fn, target))
        self._events._count_posted += 1
        if t < self._horizon:
            self._horizon = t

    def post_keyed(self, t: float, stamp: tuple, fn: Callable[[], None]) -> None:
        """Schedule a callback under an externally minted causal stamp.

        Used for events whose tie-break order must not depend on who posts
        them or when (crash detection): the synthetic stamp
        ``(0.0, rank, 0)`` is one no real post can mint (per-rank seqs
        start at 1), so its place among same-instant events is fixed.
        Such an event names no rank: it fires only under the strict gate.
        """
        if t != t or t < 0 or t == _INF:
            raise ValueError(f"invalid event time: {t!r}")
        if not callable(fn):
            raise TypeError(f"event callback must be callable, got {type(fn).__name__}")
        heapq.heappush(self._eheap, (t, stamp, fn, None))
        self._events._count_posted += 1
        if t < self._horizon:
            self._horizon = t

    def block(self, reason: str = "") -> None:
        """Sleep until some event wakes me.  Spurious wake-ups possible."""
        me = self._current
        if me is None:
            raise SimError("not inside a rank of this scheduler")
        if self._failure is not None:
            raise SimAbort()
        if (me.woken or me.pending_wake) and _consume_pending_wakes(self, me):
            return
        me.state = _BLOCKED
        me.block_reason = reason
        trace = self.trace
        if trace is not None:
            trace.record(me.clock, me.rid, "block", reason)
        self._switch_out(me)
        if trace is not None:
            trace.record(me.clock, me.rid, "resume", reason)

    # -------------------------------------------------------- network context
    def wake(self, rid: int, at_time: float) -> None:
        """Make rank ``rid`` runnable with clock >= ``at_time``.

        Network-context only (events run inside the event walk, which
        holds the baton); also safe from rank context.
        """
        ctl = self._ranks[rid]
        state = ctl.state
        if state == _BLOCKED:
            if at_time > ctl.clock:
                ctl.clock = at_time
            ctl.state = _READY
            self._push_ready(ctl)
        elif state == _RUNNING and at_time <= ctl.clock:
            # already due: only makes the next block() return at once
            ctl.woken = True
        elif state == _READY or state == _RUNNING:
            # Sticky wake: the rank is runnable at an earlier clock and may
            # block before ``at_time``; its next block() turns it into a timer.
            ctl.pending_wake.append(at_time)
        # DONE: nothing to do.

    # ----------------------------------------------------------- upper layers
    def sleep(self, dt: float) -> None:
        """Block for ``dt`` seconds of simulated time (pure delay)."""
        me = self._me()
        deadline = me.clock + dt
        self.post(dt, lambda: self.wake(me.rid, deadline), me.rid)
        while me.clock < deadline:
            self.block(f"sleep until {deadline}")
        self.checkpoint()

    def set_client(self, obj) -> None:
        """Attach a client-layer runtime object to the calling rank.

        Retrieved in O(1) by :func:`current_client` — the fast path for
        per-operation runtime lookups (``upcxx.current_runtime``,
        ``mpisim.comm_world``).  One slot per rank: each library checks
        the type of what it finds there.
        """
        self._me().client = obj

    # ------------------------------------------------------------- internals
    def _push_ready(self, ctl: _Fiber) -> None:
        clock = ctl.clock
        heapq.heappush(self._ready, (clock, ctl.rid))
        reach = clock + self.lookahead
        if reach < self._horizon:
            self._horizon = reach

    def _retarget(self) -> None:
        """Recompute the fast-path horizon after a dispatch decision."""
        if self._failure is not None:
            # keep the fast path broken so every rank observes the abort
            self._horizon = -1.0
            return
        h = self.max_time
        eheap = self._eheap
        if eheap:
            et = eheap[0][0]
            if et < h:
                h = et
        ready = self._ready
        if ready:
            reach = ready[0][0] + self.lookahead
            if reach < h:
                h = reach
        self._horizon = h

    def _sync_strict(self, me: _Fiber) -> None:
        """Let every entity the strict schedule runs before me at my clock
        run first: after this, nobody READY is earlier and every event due
        by my clock has fired, as at ``L = 0``.  A rank about to fail
        calls this before recording its failure, so an earlier rank's
        failure, which the strict schedule would have met first, wins.
        Returns quietly if that happened (the run is aborting)."""
        try:
            self._drain(me, 0.0)
        except SimAbort:
            pass

    def _fire(self, clock: float, rid: int, la: float):
        """Fire, in heap order, every due event rank ``rid`` at ``clock``
        may fire.  Returns ``(gate, stopped)``: the earliest READY clock
        (+inf if none), and whether the walk stopped at an event it may
        not fire or after one that failed the run.

        An event no later than the gate (the strict frontier) always
        fires.  One later than it fires only while ``clock`` is less than
        ``la`` ahead of the gate and the event names ``rid``, or a rank
        that is not READY behind it (class docstring).  Blocked ranks do
        not gate firing: they cannot act until an event wakes them.  At
        ``la = 0`` an event never fires while a READY rank with an
        earlier clock could still create causally-prior effects; the
        dispatch's ``clock = +inf`` fires everything up to the gate, ties
        included.  The gate is re-read after every fired event (it may
        have woken a rank) and the fired-event counter is flushed once.
        An event that raises fails the run with a :class:`SimError`
        naming it, whoever's context it fired in.
        """
        eheap = self._eheap
        ready = self._ready
        ranks = self._ranks
        gate = ready[0][0] if ready else _INF
        n_fired = 0
        try:
            while eheap:
                entry = eheap[0]
                et = entry[0]
                if et > clock:
                    break
                if et > gate:
                    # ahead of the strict frontier
                    target = entry[3]
                    if not clock < gate + la or target is None or (
                        target != rid
                        and ranks[target].state == _READY
                        and ranks[target].clock < et
                    ):
                        return gate, True
                heapq.heappop(eheap)
                n_fired += 1
                self._firing_lane = entry[1]
                self._fire_child = 0
                entry[2]()
                self._firing_lane = None
                gate = ready[0][0] if ready else _INF
                if self._failure is not None:
                    return gate, True  # _abort_all emptied the heap: +inf
            return gate, False
        except Exception as exc:  # noqa: BLE001 - a broken event fails the run
            self.fail(_event_failure(entry, exc))
            return _INF, True
        finally:
            self._firing_lane = None
            if n_fired:
                self._events.account_fired(n_fired)

    def _drain(self, me: _Fiber, la: float) -> None:
        # Deliver due events, then keep the baton or yield it: keep it if
        # no READY rank is earlier, or if I am less than ``la`` ahead and
        # the walk fired everything due.  A walk that failed the run left
        # no rank READY (gate +inf), so I keep the baton and my next call
        # into the scheduler observes the abort.
        clock = me.clock
        gate, stopped = self._fire(clock, me.rid, la)
        if clock <= gate or (clock < gate + la and not stopped):
            self._retarget()
        else:
            # Someone could reach me, or an event I may not fire is due:
            # yield to the earliest READY rank directly.  The walk stopped
            # at the first event it may not fire, which is later than the
            # heap's head, so that head is what _dispatch would select:
            # swap me in for it.
            me.state = _READY
            nxt = heapq.heapreplace(self._ready, (clock, me.rid))[1]
            self._switch_out(me, self._ranks[nxt])

    def _switch_out(self, me: _Fiber, nxt: Optional[_Fiber] = None) -> None:
        """Resume ``nxt`` (else what _dispatch selects); park until resumed.

        If the dispatch re-selects *me* (an event at my own clock woke me
        back up), my baton was just released and the acquire succeeds
        immediately, leaving it held again — the protocol is insensitive
        to release-before-acquire ordering.
        """
        if nxt is None:
            self._dispatch()
        else:
            self._resume(nxt)
        me.baton.acquire()
        if self._failure is not None:
            raise SimAbort()

    def _resume(self, ctl: _Fiber) -> None:
        """Make ``ctl``, just taken off the ready heap, the running fiber
        and hand it the baton — every switch of the run comes through here."""
        ctl.state = _RUNNING
        self.switches += 1
        self._current = ctl
        self._retarget()
        if ctl.thread is None:
            self._start_fiber(ctl)
        else:
            ctl.baton.release()

    def _dispatch(self) -> None:
        """Select and start the next entity.  Caller must not be RUNNING.

        Fires every event due no later than the earliest READY clock, then
        resumes that rank, releases the main thread (job finished), or
        declares deadlock.  ``_fire`` flushes the fired-event counter
        before a rank is resumed, so no other fiber races the accounting.
        """
        self._fire(_INF, -1, 0.0)
        if self._failure is not None:
            self._abort_all()
        elif self._ready:
            self._resume(self._ranks[heapq.heappop(self._ready)[1]])
        elif self._n_done == self.n_ranks:
            self._current = None
            self._release_main()
        else:
            blocked = [
                f"  rank {c.rid} (clock {c.clock:.9f}s): {c.block_reason or '<no reason>'}"
                for c in self._ranks
                if c.state == _BLOCKED
            ]
            self.fail(
                DeadlockError(
                    "simulation deadlock: no runnable ranks and no pending events.\n"
                    + "\n".join(blocked)
                )
            )

    _start_fiber = _start_carrier  # called lazily, at a fiber's first dispatch

    def _fiber_main(self, ctl: _Fiber) -> None:
        try:
            ctl.result = self._fn(ctl.rid)
        except SimAbort:
            pass
        except RankCrashed:
            pass  # fault-injected death: the rank just stops (fail-stop)
        except BaseException as exc:  # noqa: BLE001 - report any rank failure
            if self._failure is None and self.lookahead and ctl.state == _RUNNING:
                self._sync_strict(ctl)
            if self._failure is None:
                self._failure = _rank_failure(ctl.rid, exc)
            self._abort_all()
        finally:
            ctl.state = _DONE
            ctl.client = None
            self._n_done += 1
            if self._failure is None:
                self._dispatch()
            else:
                self._release_main()

    def fail(self, exc: BaseException) -> None:
        """Fail the run with ``exc`` (a later failure is ignored) and
        unwind every rank; :meth:`run` raises the first failure."""
        if self._failure is None:
            self._failure = exc
        self._abort_all()

    def _abort_all(self) -> None:
        if self._aborted:
            return
        self._aborted = True
        # break the charge()/checkpoint() fast path: a rank resumed mid-
        # checkpoint must not keep running below a stale horizon; no rank
        # stays READY, so the ready heap goes too
        self._horizon = -1.0
        del self._ready[:]
        self._current = None
        for ctl in self._ranks:
            if ctl.state in (_BLOCKED, _READY):
                if ctl.thread is None:
                    ctl.state = _DONE  # never started; nothing to unwind
                else:
                    # Parked fiber: release its baton once so it observes
                    # the failure, raises SimAbort, and unwinds.
                    ctl.state = _RUNNING
                    ctl.baton.release()
        self._release_main()

    def _release_main(self) -> None:
        # The guard lock makes "release main exactly once" atomic even if
        # several unwinding fibers race here.
        if self._main_release_guard.acquire(blocking=False):
            self._main_baton.release()

    # ------------------------------------------------------------------- run
    def run(self, fn: Callable[[int], object]) -> List[object]:
        """Run ``fn(rank)`` on every rank to completion; return the results.

        Raises :class:`RankFailure` if any rank raised, or
        :class:`DeadlockError` if the simulation wedged.  A scheduler runs
        once: whatever the outcome, it lets go of the job on the way out.
        """
        if self._running:
            raise SimError("Scheduler.run() is not reentrant")
        self._running = True
        try:
            self._fn = fn
            for ctl in self._ranks:
                ctl.state = _READY
                self._push_ready(ctl)
            self._dispatch()
            self._main_baton.acquire()
            for ctl in self._ranks:
                if ctl.thread is not None:
                    ctl.thread.join(timeout=30.0)
            if self._failure is not None:
                raise self._failure
            return [ctl.result for ctl in self._ranks]
        finally:
            self._release()

    def _release(self) -> None:
        """End of ``run()``: let go of everything that points back at the job.

        What is left in a spent scheduler — the rank function, undelivered
        events, the per-rank client slots, the failure about to be raised
        (whose traceback holds this very frame chain) — belongs to the
        layers above, which hold the scheduler in turn.  Dropping it here
        leaves no cycle through the scheduler, so a finished job and its
        segments are freed by reference counting, without waiting for a
        ``gc`` pass.  Results, clocks, counters and the trace stay
        readable.  The scheduler keeps no crash state: the death listeners
        (``World.on_rank_dead``) are the UPC++ world's, dropped by
        ``World.close``.
        """
        self._fn = None
        self._failure = None
        del self._events._heap[:]
        for ctl in self._ranks:
            ctl.client = None

    def stats(self) -> dict:
        """Machine-readable run counters (benchmarks / postmortems)."""
        ev = self._events.stats
        return {
            "n_ranks": self.n_ranks,
            "switches": self.switches,
            "events_posted": ev["posted"],
            "events_fired": ev["fired"],
        }
