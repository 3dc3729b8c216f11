"""Targeted stress tests for the scheduler's hard cases.

The sticky-wake machinery (lost-wakeup prevention when events destined for
a runnable rank fire at future timestamps) is the subtlest part of the
kernel; these tests pin its behavior, plus interleaving-heavy workloads
that historically exposed ordering bugs.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.coop import Scheduler, current_scheduler, run_spmd
from repro.sim.errors import DeadlockError

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

        def body(r):
            s = current_scheduler()
            env = s.rank_env()
            env.setdefault("inbox", [])
            if r == 0:
                # schedule a delivery to rank 1 at t=5us, then run far past
                # it so the event fires during OUR drain
                def deliver():
                    s.rank_env(1).setdefault("inbox", []).append("msg")
                    s.wake(1, 5e-6)

                s.post(5e-6, deliver)
                s.charge(50e-6)
                return None
            # rank 1 stays at a tiny clock, then blocks
            s.charge(1e-6)
            while not env["inbox"]:
                s.block("waiting")
            assert s.now() >= 5e-6
            return env["inbox"][0]

        assert run_spmd(body, 2) == [None, "msg"]

    def test_multiple_future_wakes_all_delivered(self):
        """Several future-timestamped deliveries while READY: every one
        must eventually be seen (regression: the sticky wake used to keep
        only the earliest)."""

        def body(r):
            s = current_scheduler()
            env = s.rank_env()
            env.setdefault("inbox", [])
            if r == 0:
                for k in range(1, 4):
                    t = k * 5e-6

                    def deliver(t=t):
                        s.rank_env(1).setdefault("inbox", []).append(t)
                        s.wake(1, t)

                    s.post(t, deliver)
                s.charge(100e-6)
                return None
            s.charge(1e-6)
            got = []
            while len(got) < 3:
                while env["inbox"]:
                    m = env["inbox"].pop(0)
                    assert s.now() >= m  # never observed before its time
                    got.append(m)
                if len(got) < 3:
                    s.block("more")
            return got

        res = run_spmd(body, 2)
        assert res[1] == [k * 5e-6 for k in (1, 2, 3)]

    def test_spurious_past_wake_is_harmless(self):
        """A wake whose condition was already consumed just causes one
        extra predicate check."""

        def body(r):
            s = current_scheduler()
            env = s.rank_env()
            env.setdefault("n", 0)
            if r == 0:
                def bump():
                    env1 = s.rank_env(1)
                    env1["n"] = env1.get("n", 0) + 1
                    s.wake(1, 2e-6)
                    s.wake(1, 2e-6)  # duplicate wake, same instant

                s.post(2e-6, bump)
                s.charge(20e-6)
                return None
            while env["n"] == 0:
                s.block("bump")
            return env["n"]

        assert run_spmd(body, 2)[1] == 1


class TestInterleavingStress:
    def test_ring_relay_many_rounds(self):
        """A token circles a ring 20 times; total hops must be exact."""

        def body(r):
            s = current_scheduler()
            n = 8
            env = s.rank_env()
            env.setdefault("tokens", [])
            hops = 0
            rounds = 20

            def send_to(dst, value):
                def deliver(t=None):
                    s.rank_env(dst)["tokens"].append(value)
                    s.wake(dst, s2_time[0])

                s2_time = [s.now() + 1e-6]
                s.post(1e-6, deliver)

            if r == 0:
                send_to(1, 0)
            expected = rounds if r == 0 else rounds
            while hops < expected:
                while not env["tokens"]:
                    s.block("token")
                v = env["tokens"].pop(0)
                hops += 1
                if not (r == 0 and hops == rounds):
                    send_to((r + 1) % n, v + 1)
            return hops

        res = run_spmd(body, 8)
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

        run_spmd(body, 4)
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

        run_spmd(body, len(steps))
        assert log == _i2_order(steps)

    def test_many_ranks_sleep_storm(self):
        """Hundreds of overlapping sleeps resolve without deadlock."""

        def body(r):
            s = current_scheduler()
            for i in range(5):
                s.sleep(((r * 7 + i * 3) % 11 + 1) * 1e-6)
            return round(s.now() * 1e9)

        res = run_spmd(body, 64)
        assert len(res) == 64 and all(t > 0 for t in res)


class TestDiagnostics:
    def test_snapshot_lists_states(self):
        sched = Scheduler(2)

        def body(r):
            current_scheduler().charge(1e-6)

        sched.run(body)
        snap = sched.snapshot()
        assert "rank 0" in snap and "DONE" in snap

    def test_deadlock_message_includes_reasons(self):
        def body(r):
            current_scheduler().block(f"custom-reason-{r}")

        with pytest.raises(DeadlockError) as ei:
            run_spmd(body, 3)
        msg = str(ei.value)
        for r in range(3):
            assert f"custom-reason-{r}" in msg
