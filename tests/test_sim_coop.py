"""Tests for the cooperative SPMD scheduler.

These exercise the baton discipline: deterministic ordering, charge/yield
semantics, message-style wakeups, deadlock detection, and failure
propagation.
"""

import os
import resource

import pytest

from repro.sim.coop import Scheduler, current_scheduler
from repro.sim.errors import DeadlockError, RankDeadError, RankFailure, SimError
from repro.util.trace import TraceBuffer


def test_single_rank_runs_and_returns():
    assert Scheduler(1).run(lambda r: r + 100) == [100]


def test_all_ranks_run():
    assert Scheduler(8).run(lambda r: r * r) == [r * r for r in range(8)]


def test_current_scheduler_visible():
    def body(r):
        assert current_scheduler() is not None
        return current_scheduler().now()

    assert Scheduler(4).run(body) == [0.0] * 4


def test_charge_advances_clock():
    def body(r):
        s = current_scheduler()
        s.charge(1e-6)
        s.charge(2e-6)
        return round(s.now() * 1e9)

    assert Scheduler(2).run(body) == [3000, 3000]


def test_charge_rejects_negative():
    def body(r):
        current_scheduler().charge(-1.0)

    with pytest.raises(RankFailure):
        Scheduler(1).run(body)


def test_time_ordered_interleaving():
    """Ranks with different charge patterns interleave in clock order."""
    log = []

    def body(r):
        s = current_scheduler()
        # rank 0 takes 1us steps, rank 1 takes 3us steps
        step = 1e-6 if r == 0 else 3e-6
        for _i in range(3):
            s.charge(step)
            log.append((round(s.now() * 1e9), r))

    Scheduler(2).run(body)
    assert log == sorted(log)


def test_sleep_blocks_for_simulated_time():
    def body(r):
        s = current_scheduler()
        s.sleep(5e-6 * (r + 1))
        return round(s.now() * 1e6)

    assert Scheduler(3).run(body) == [5, 10, 15]


def test_event_delivery_and_wake():
    """A simple message queue built directly on the scheduler primitives."""
    inbox = []  # rank 1's

    def body(r):
        s = current_scheduler()
        if r == 0:
            # send a message to rank 1 arriving at t=2us
            def deliver():
                inbox.append("hello")
                s.wake(1, 2e-6)

            s.post(2e-6, deliver)
            return None
        else:
            while not inbox:
                s.block("awaiting message")
            assert s.now() >= 2e-6
            return inbox[0]

    assert Scheduler(2).run(body) == [None, "hello"]


def _deadlock(r):
    current_scheduler().block("forever")


def _crash_detected_inside_a_yield():
    """Rank 1 dies at 50 us and is detected at 70 us.  Rank 3 charges 1 ms
    from 60 us while ranks 0 and 2 are READY at 500 us, so the detect event
    fails the run inside rank 3's drain, on the path that would otherwise
    hand the baton straight to rank 0."""
    import repro.upcxx as upcxx

    def body():
        me = upcxx.rank_me()
        if me == 1:
            for _ in range(20):
                upcxx.compute(1e-5)
                upcxx.progress()
        elif me == 3:
            upcxx.compute(6e-5)
            upcxx.compute(1e-3)
        else:
            upcxx.compute(5e-4)

    return upcxx.run_spmd(body, 4, faults="seed=1,crash=1@5e-5")


def _fail_on_two(r):
    if r == 2:
        raise ValueError("boom")
    current_scheduler().block("peer died")


def test_deadlock_detected():
    with pytest.raises(DeadlockError) as ei:
        Scheduler(2).run(_deadlock)
    assert "forever" in str(ei.value)


def test_rank_exception_propagates_with_rank_id():
    with pytest.raises(RankFailure) as ei:
        Scheduler(4).run(_fail_on_two)
    assert ei.value.rank == 2
    assert isinstance(ei.value.__cause__, ValueError)


def test_max_time_guard():
    def body(r):
        s = current_scheduler()
        while True:
            s.charge(1.0)

    with pytest.raises(SimError, match="max_time"):
        Scheduler(1, max_time=10.0).run(body)


def _run_joined(sched, body, timeout=10.0):
    """``sched.run(body)`` on a thread joined with a timeout, so that a
    hang fails the test instead of stalling the session.  Returns what
    ``run()`` raised."""
    import threading

    raised = []

    def main():
        try:
            sched.run(body)
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            raised.append(exc)

    thread = threading.Thread(target=main, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "run() hung"
    assert len(raised) == 1, "run() returned"
    return raised[0]


def _boom():
    raise ValueError("boom")


def _fired_by_a_finished_rank(r):
    """Rank 1 blocks for good; rank 0 posts, then returns, and its exit
    dispatch meets the event."""
    s = current_scheduler()
    if r == 1:
        s.block("forever")
    s.charge(1e-9)  # rank 1 blocks first
    s.post(1e-6, _boom, 0)


def _fired_by_the_posting_rank(r):
    """Rank 1 is ahead at 10 us; rank 0's own charge fires its event."""
    s = current_scheduler()
    if r == 1:
        s.charge(10e-6)
        return
    s.charge(1e-9)
    s.post(1e-6, _boom, 0)
    s.charge(2e-6)


def _fired_by_another_rank(r):
    """Rank 0 posts and blocks; rank 1's charge fires the event."""
    s = current_scheduler()
    if r == 0:
        s.post(1e-6, _boom, 0)
        s.block("forever")
    s.charge(2e-6)


@pytest.mark.parametrize(
    "body,t",
    [
        (_fired_by_a_finished_rank, 1e-9 + 1e-6),
        (_fired_by_the_posting_rank, 1e-9 + 1e-6),
        (_fired_by_another_rank, 1e-6),
    ],
    ids=["finished-rank-dispatch", "posting-rank-charge", "other-rank-charge"],
)
def test_an_event_that_raises_fails_the_run_naming_the_event(body, t):
    """Whoever's context an event fires in, its exception fails the run as
    a SimError naming the event, never as that rank's RankFailure, and
    ``run()`` returns."""
    err = _run_joined(Scheduler(2), body)
    assert type(err) is SimError
    assert str(err) == f"event at t={t!r} (target: rank 0) raised ValueError: boom"
    assert isinstance(err.__cause__, ValueError)


@pytest.mark.parametrize("path", ["drain", "dispatch"])
def test_a_failure_stops_the_event_walk(path):
    """A crash-detection-style event fails the run and three more events
    are due at the same instant: none fires, whether a charging rank's
    drain meets them or a block's dispatch does."""
    fired = []

    def body(r):
        s = current_scheduler()
        if r == 1:
            s.block("forever")
        s.charge(1e-9)  # rank 1 blocks first
        t = s.now() + 1e-6
        s.post_at(t, lambda: s.fail(RankDeadError(1, "rank 1 detected dead")))
        for i in range(3):
            s.post_at(t, lambda i=i: fired.append(i))
        if path == "drain":
            s.charge(2e-6)
        else:
            s.block("after posting")

    err = _run_joined(Scheduler(2), body)
    assert isinstance(err, RankDeadError)
    assert fired == []


def test_determinism_same_seedless_program():
    """Two runs of the same program produce identical traces."""

    def make_body(log):
        def body(r):
            s = current_scheduler()
            for i in range(5):
                s.charge((r + 1) * 1e-6)
                log.append((round(s.now() * 1e9), r, i))

        return body

    log1, log2 = [], []
    Scheduler(4).run(make_body(log1))
    Scheduler(4).run(make_body(log2))
    assert log1 == log2


def test_trace_buffer_records_blocks():
    trace = TraceBuffer()

    def body(r):
        current_scheduler().sleep(1e-6)

    Scheduler(2, trace=trace).run(body)
    kinds = {ev.kind for ev in trace}
    assert "block" in kinds and "resume" in kinds


def test_post_at_absolute_time():
    def body(r):
        s = current_scheduler()
        fired = []
        s.post_at(7e-6, lambda: (fired.append(True), s.wake(0, 7e-6)))
        while not fired:
            s.block("wait for absolute event")
        return round(s.now() * 1e6)

    assert Scheduler(1).run(body) == [7]


def test_a_self_fired_wake_returns_the_next_block_at_once():
    """A wake the running rank fires in its own event walk, at or before
    its clock, is a flag: the next block() returns without sleeping and
    drops the listed wakes its clock has passed, and a wake for a later
    time still turns the block after it into a timer."""

    def body(r):
        s = current_scheduler()
        s.post_at(1e-6, lambda: s.wake(0, 1e-6))  # due as it fires: the flag
        s.post_at(2e-6, lambda: s.wake(0, 6e-6))  # listed, passed by the block
        s.post_at(3e-6, lambda: s.wake(0, 20e-6))  # listed, a timer later
        s.charge(5e-6)  # all three fire while running
        me = s._current
        flagged = (me.woken, sorted(me.pending_wake))
        s.charge(5e-6)
        t_block = s.now()
        s.block("due wake")
        first = (s.now() == t_block, me.woken, list(me.pending_wake))
        s.block("later wake")
        return flagged, first, s.now()

    assert Scheduler(1).run(body) == [((True, [6e-6, 20e-6]), (True, False, [20e-6]), 20e-6)]


def test_run_not_reentrant():
    sched = Scheduler(1)
    sched.run(lambda r: None)
    with pytest.raises(Exception):
        sched.run(lambda r: None)


def test_many_ranks_smoke():
    """128 ranks with staggered sleeps complete and preserve ordering."""

    def body(r):
        s = current_scheduler()
        s.sleep((r % 7 + 1) * 1e-6)
        s.charge(1e-6)
        return r

    assert Scheduler(128).run(body) == list(range(128))


def test_ties_resolved_by_rank_order():
    """Ranks released at the same instant run in rank order."""
    log = []

    def body(r):
        s = current_scheduler()
        s.sleep(1e-6)  # everyone wakes at the same simulated time
        log.append(r)

    Scheduler(6).run(body)
    assert log == sorted(log)


def test_charge_rejects_nan():
    """NaN fails the fast-path comparison forever, so it must be refused
    where it is charged, not at some later, unrelated post."""

    def body(r):
        current_scheduler().charge(float("nan"))

    with pytest.raises(RankFailure) as ei:
        Scheduler(1).run(body)
    assert isinstance(ei.value.__cause__, ValueError)
    assert "invalid charge: nan" in str(ei.value.__cause__)


def _charge_storm(policies=None):
    """64 ranks with staggered start clocks, 200 x ``charge(1e-6)`` each:
    nearly every charge yields.  Returns (results, switches)."""

    def body(r):
        s = current_scheduler()
        if policies is not None:
            policies.append(os.sched_getscheduler(0) == os.SCHED_BATCH)
        s.charge(r * 1e-8)
        for _ in range(200):
            s.charge(1e-6)
        return s.now()

    sched = Scheduler(64)
    return sched.run(body), sched.switches


_needs_sched_setscheduler = pytest.mark.skipif(
    not hasattr(os, "sched_setscheduler"), reason="no os.sched_setscheduler on this platform"
)


@_needs_sched_setscheduler
def test_a_hand_off_does_not_preempt_its_waker():
    """Carriers are SCHED_BATCH, the caller's thread keeps its policy, and a
    woken carrier waits for its waker to park: involuntary context switches
    stay far below one per switch (a preempting wake costs about one each)."""
    policies = []
    before = os.sched_getscheduler(0)
    nivcsw = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw
    _, switches = _charge_storm(policies)
    nivcsw = resource.getrusage(resource.RUSAGE_SELF).ru_nivcsw - nivcsw
    assert policies == [True] * 64
    assert os.sched_getscheduler(0) == before
    assert nivcsw < switches // 4, f"{nivcsw} involuntary context switches for {switches} switches"


@_needs_sched_setscheduler
@pytest.mark.parametrize("fallback", ["refused", "absent"])
def test_without_sched_batch_only_host_time_changes(monkeypatch, fallback):
    expected = _charge_storm()
    refusals = []
    if fallback == "refused":

        def refuse(*args):
            refusals.append(args)
            raise PermissionError(1, "Operation not permitted")

        monkeypatch.setattr(os, "sched_setscheduler", refuse)
    else:
        monkeypatch.delattr(os, "sched_setscheduler")
    assert _charge_storm() == expected
    assert len(refusals) == (64 if fallback == "refused" else 0)


@pytest.mark.parametrize(
    "job,outcome",
    [
        (lambda: Scheduler(4).run(lambda r: current_scheduler().sleep(1e-6)), None),
        (lambda: Scheduler(4).run(_fail_on_two), RankFailure),
        (lambda: Scheduler(4).run(_deadlock), DeadlockError),
        (lambda: Scheduler(4, max_time=1.0).run(lambda r: current_scheduler().charge(2.0)), SimError),
        (lambda: _upcxx_crash("seed=1,crash=1@5e-5"), RankDeadError),
        (lambda: _upcxx_crash("seed=1,crash=1@5e-5,survive=1"), None),
        (_crash_detected_inside_a_yield, RankDeadError),
    ],
    ids=[
        "success",
        "rank-failure",
        "deadlock",
        "max-time",
        "fail-stop-crash",
        "survivable-crash",
        "crash-detected-inside-a-yield",
    ],
)
def test_no_carrier_thread_outlives_run(job, outcome):
    """However ``run()`` ends, every rank's carrier thread has ended too."""
    import threading

    if outcome is None:
        job()
    else:
        with pytest.raises(outcome):
            job()
    assert [t.name for t in threading.enumerate() if t.name.startswith("simrank-")] == []


def _upcxx_crash(faults):
    import repro.upcxx as upcxx

    def body():
        for _ in range(20):  # rank 1 dies at 5e-5, mid-loop
            upcxx.compute(1e-5)
            upcxx.progress()

    return upcxx.run_spmd(body, 4, faults=faults)
