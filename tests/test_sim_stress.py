"""Targeted stress tests for the scheduler's hard cases.

The sticky-wake machinery (lost-wakeup prevention when events destined for
a runnable rank fire at future timestamps) is the subtlest part of the
kernel; these tests pin its behavior, plus interleaving-heavy workloads
that historically exposed ordering bugs.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.coop import _READY, Scheduler, current_scheduler
from repro.sim.errors import DeadlockError
from tests import golden

#: charges are multiples of a dyadic tick, so clock sums are exact and
#: equal clocks are real ties
_TICK = 2.0**-20


def _i2_order(charges):
    """The (rank, i) log of invariant I2 with its tie rule, computed without
    a scheduler: the running rank keeps the baton while no READY rank is
    strictly earlier; otherwise the smallest (clock, rank) resumes, and a
    finished rank hands over to that same minimum.  A rank's i-th entry is
    logged when its i-th charge returns."""
    n = len(charges)
    clock = [0.0] * n
    done = [0] * n  # charges returned so far
    inside = [False] * n  # yielded inside charge number done[r]
    ready = set(range(n))
    log = []
    cur = 0
    while True:
        if inside[cur]:
            inside[cur] = False
            log.append((cur, done[cur]))
            done[cur] += 1
        while done[cur] < len(charges[cur]):
            clock[cur] += charges[cur][done[cur]] * _TICK
            earliest = min(((clock[r], r) for r in ready if r != cur), default=None)
            if earliest is not None and earliest[0] < clock[cur]:
                inside[cur] = True
                cur = earliest[1]
                break
            log.append((cur, done[cur]))
            done[cur] += 1
        else:
            ready.discard(cur)
            if not ready:
                return log
            cur = min((clock[r], r) for r in ready)[1]


class TestStickyWakes:
    def test_future_wake_received_while_ready(self):
        """An event for rank 1 fires (via rank 0's drain) at a timestamp
        beyond rank 1's clock while rank 1 is READY; rank 1 must still be
        woken when it blocks."""
        inbox = []  # rank 1's

        def body(r):
            s = current_scheduler()
            if r == 0:
                # schedule a delivery to rank 1 at t=5us, then run far past
                # it so the event fires during OUR drain
                def deliver():
                    inbox.append("msg")
                    s.wake(1, 5e-6)

                s.post(5e-6, deliver)
                s.charge(50e-6)
                return None
            # rank 1 stays at a tiny clock, then blocks
            s.charge(1e-6)
            while not inbox:
                s.block("waiting")
            assert s.now() >= 5e-6
            return inbox[0]

        assert Scheduler(2).run(body) == [None, "msg"]

    def test_multiple_future_wakes_all_delivered(self):
        """Several future-timestamped deliveries while READY: every one
        must eventually be seen (regression: the sticky wake used to keep
        only the earliest)."""
        inbox = []  # rank 1's

        def body(r):
            s = current_scheduler()
            if r == 0:
                for k in range(1, 4):
                    t = k * 5e-6

                    def deliver(t=t):
                        inbox.append(t)
                        s.wake(1, t)

                    s.post(t, deliver)
                s.charge(100e-6)
                return None
            s.charge(1e-6)
            got = []
            while len(got) < 3:
                while inbox:
                    m = inbox.pop(0)
                    assert s.now() >= m  # never observed before its time
                    got.append(m)
                if len(got) < 3:
                    s.block("more")
            return got

        res = Scheduler(2).run(body)
        assert res[1] == [k * 5e-6 for k in (1, 2, 3)]

    def test_spurious_past_wake_is_harmless(self):
        """A wake whose condition was already consumed just causes one
        extra predicate check."""
        bumps = [0]  # rank 1's

        def body(r):
            s = current_scheduler()
            if r == 0:
                def bump():
                    bumps[0] += 1
                    s.wake(1, 2e-6)
                    s.wake(1, 2e-6)  # duplicate wake, same instant

                s.post(2e-6, bump)
                s.charge(20e-6)
                return None
            while bumps[0] == 0:
                s.block("bump")
            return bumps[0]

        assert Scheduler(2).run(body)[1] == 1


def _watch_ready_heap(m):
    """Patch ``Scheduler._resume`` through the MonkeyPatch ``m`` to check,
    at every switch, that the ready heap is exact: besides the rank being
    resumed (just taken off it), it holds one ``(clock, rid)`` entry per
    READY rank, at that rank's clock.  Returns the switch count and the
    violations found.  A violation fails the run instead of switching (a
    switch may run on a carrier thread, where a raise would hang it)."""
    seen = {"switches": 0, "violations": []}
    resume = Scheduler._resume

    def checked(sched, ctl):
        seen["switches"] += 1
        want = Counter((c.clock, c.rid) for c in sched._ranks if c.state == _READY and c is not ctl)
        if ctl.state == _READY and Counter(sched._ready) == want:
            resume(sched, ctl)
            return
        seen["violations"].append((ctl.rid, sorted(sched._ready), sorted(want)))
        sched.fail(AssertionError(f"ready heap not exact at switch {seen['switches']}"))

    m.setattr(Scheduler, "_resume", checked)
    return seen


@pytest.fixture(scope="class")
def exact_ready_heap():
    with pytest.MonkeyPatch.context() as m:
        seen = _watch_ready_heap(m)
        yield
    assert seen["switches"] > 0
    assert seen["violations"] == []


@pytest.mark.parametrize("name", ["dht_totals", "kv_service"])
def test_the_ready_heap_is_exact_in_golden_programs(name, monkeypatch):
    """The same check at the job's lookahead, on a DHT and a KV service."""
    seen = _watch_ready_heap(monkeypatch)
    golden.PROGRAMS[name]()
    assert seen["switches"] > 0
    assert seen["violations"] == []


@pytest.mark.usefixtures("exact_ready_heap")
class TestInterleavingStress:
    def test_ring_relay_many_rounds(self):
        """A token circles a ring 20 times; total hops must be exact."""
        n = 8
        tokens = [[] for _ in range(n)]  # per-rank mailboxes

        def body(r):
            s = current_scheduler()
            hops = 0
            rounds = 20

            def send_to(dst, value):
                def deliver(t=None):
                    tokens[dst].append(value)
                    s.wake(dst, s2_time[0])

                s2_time = [s.now() + 1e-6]
                s.post(1e-6, deliver)

            if r == 0:
                send_to(1, 0)
            expected = rounds if r == 0 else rounds
            while hops < expected:
                while not tokens[r]:
                    s.block("token")
                v = tokens[r].pop(0)
                hops += 1
                if not (r == 0 and hops == rounds):
                    send_to((r + 1) % n, v + 1)
            return hops

        res = Scheduler(n).run(body)
        assert all(h == 20 for h in res)

    def test_uneven_charges_keep_global_order(self):
        """Ranks with wildly different step sizes still observe events in
        nondecreasing time order."""
        observed = []

        def body(r):
            s = current_scheduler()
            step = [1e-7, 3e-6, 7e-6, 13e-6][r % 4]
            for _ in range(15):
                s.charge(step)
                observed.append((s.now(), r))

        Scheduler(4).run(body)
        times = [t for t, _ in observed]
        assert times == sorted(times)

    @given(st.lists(st.lists(st.integers(1, 4), max_size=12), min_size=1, max_size=9))
    def test_resume_order_is_i2_with_its_tie_rule(self, steps):
        """Not just sorted times: the exact interleaving, ties included."""
        log = []

        def body(r):
            s = current_scheduler()
            for i, k in enumerate(steps[r]):
                s.charge(k * _TICK)
                log.append((r, i))

        Scheduler(len(steps)).run(body)
        assert log == _i2_order(steps)

    def test_many_ranks_sleep_storm(self):
        """Hundreds of overlapping sleeps resolve without deadlock."""

        def body(r):
            s = current_scheduler()
            for i in range(5):
                s.sleep(((r * 7 + i * 3) % 11 + 1) * 1e-6)
            return round(s.now() * 1e9)

        res = Scheduler(64).run(body)
        assert len(res) == 64 and all(t > 0 for t in res)


class TestDiagnostics:
    def test_deadlock_message_includes_reasons(self):
        def body(r):
            current_scheduler().block(f"custom-reason-{r}")

        with pytest.raises(DeadlockError) as ei:
            Scheduler(3).run(body)
        msg = str(ei.value)
        for r in range(3):
            assert f"custom-reason-{r}" in msg
