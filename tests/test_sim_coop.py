"""Tests for the cooperative SPMD scheduler.

These exercise the baton discipline: deterministic ordering, charge/yield
semantics, message-style wakeups, deadlock detection, and failure
propagation.
"""

import os
import resource

import pytest

from repro.sim.coop import Scheduler, current_rank, current_scheduler, run_spmd
from repro.sim.errors import DeadlockError, RankDeadError, RankFailure, SimError
from repro.util.trace import TraceBuffer


def test_single_rank_runs_and_returns():
    assert run_spmd(lambda r: r + 100, 1) == [100]


def test_all_ranks_run():
    assert run_spmd(lambda r: r * r, 8) == [r * r for r in range(8)]


def test_current_rank_and_scheduler_visible():
    def body(r):
        assert current_rank() == r
        assert current_scheduler() is not None
        return current_scheduler().now()

    assert run_spmd(body, 4) == [0.0] * 4


def test_charge_advances_clock():
    def body(r):
        s = current_scheduler()
        s.charge(1e-6)
        s.charge(2e-6)
        return round(s.now() * 1e9)

    assert run_spmd(body, 2) == [3000, 3000]


def test_charge_rejects_negative():
    def body(r):
        current_scheduler().charge(-1.0)

    with pytest.raises(RankFailure):
        run_spmd(body, 1)


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

    run_spmd(body, 2)
    assert log == sorted(log)


def test_sleep_blocks_for_simulated_time():
    def body(r):
        s = current_scheduler()
        s.sleep(5e-6 * (r + 1))
        return round(s.now() * 1e6)

    assert run_spmd(body, 3) == [5, 10, 15]


def test_event_delivery_and_wake():
    """A simple message queue built directly on the scheduler primitives."""

    def body(r):
        s = current_scheduler()
        env = s.rank_env()
        env.setdefault("inbox", [])
        if r == 0:
            # send a message to rank 1 arriving at t=2us
            def deliver():
                s.rank_env(1)["inbox"].append("hello")
                s.wake(1, 2e-6)

            s.post(2e-6, deliver)
            return None
        else:
            while not env["inbox"]:
                s.block("awaiting message")
            assert s.now() >= 2e-6
            return env["inbox"][0]

    assert run_spmd(body, 2) == [None, "hello"]


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
        run_spmd(_deadlock, 2)
    assert "forever" in str(ei.value)


def test_rank_exception_propagates_with_rank_id():
    with pytest.raises(RankFailure) as ei:
        run_spmd(_fail_on_two, 4)
    assert ei.value.rank == 2
    assert isinstance(ei.value.__cause__, ValueError)


def test_max_time_guard():
    def body(r):
        s = current_scheduler()
        while True:
            s.charge(1.0)

    with pytest.raises(SimError, match="max_time"):
        Scheduler(1, max_time=10.0).run(body)


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
    run_spmd(make_body(log1), 4)
    run_spmd(make_body(log2), 4)
    assert log1 == log2


def test_trace_buffer_records_blocks():
    trace = TraceBuffer()

    def body(r):
        current_scheduler().sleep(1e-6)

    run_spmd(body, 2, trace=trace)
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

    assert run_spmd(body, 1) == [7]


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

    assert run_spmd(body, 128) == list(range(128))


def test_ties_resolved_by_rank_order():
    """Ranks released at the same instant run in rank order."""
    log = []

    def body(r):
        s = current_scheduler()
        s.sleep(1e-6)  # everyone wakes at the same simulated time
        log.append(r)

    run_spmd(body, 6)
    assert log == sorted(log)


def test_charge_rejects_nan():
    """NaN fails the fast-path comparison forever, so it must be refused
    where it is charged, not at some later, unrelated post."""

    def body(r):
        current_scheduler().charge(float("nan"))

    with pytest.raises(RankFailure) as ei:
        run_spmd(body, 1)
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
        (lambda: run_spmd(lambda r: current_scheduler().sleep(1e-6), 4), None),
        (lambda: run_spmd(_fail_on_two, 4), RankFailure),
        (lambda: run_spmd(_deadlock, 4), DeadlockError),
        (lambda: run_spmd(lambda r: current_scheduler().charge(2.0), 4, max_time=1.0), SimError),
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
