"""The lookahead scheduler against the strict one.

``run_spmd`` and ``run_mpi`` give their scheduler a lookahead ``L``, the
shorter one-way latency of the job's network (``repro.gasnet.machine.lookahead``):
a running rank keeps the baton while it is less than ``L`` ahead of every
READY rank.  ``L = 0`` is the strict schedule, reached here by patching
that helper.  The relaxation is exact: every golden program leaves the
same results, trace, spans, metrics and event counts at both, only the
number of baton hand-offs differs, and a failing run reports the failure
the strict schedule meets first.
"""

import weakref

import pytest

import repro.gasnet.machine
import repro.upcxx as upcxx
from repro.gasnet.network import AriesNetwork
from repro.sim.coop import _READY, Scheduler, current_scheduler
from repro.sim.errors import RankFailure, SimError
from tests import golden

#: one-way shared-memory latency of the default network: the L of a
#: run_spmd job
L = 0.15e-6


@pytest.fixture
def strict(monkeypatch):
    """``strict(fn)`` calls ``fn`` with every job it starts at ``L = 0``."""

    def call(fn):
        with monkeypatch.context() as m:
            m.setattr(repro.gasnet.machine, "lookahead", lambda network: 0.0)
            return fn()

    return call


def test_run_spmd_takes_the_shorter_one_way_latency():
    net = AriesNetwork()
    assert repro.gasnet.machine.lookahead(net) == min(net.latency_oneway, net.latency_oneway_shm) == L


# ------------------------------------------------------ differential oracle
@pytest.mark.parametrize("name", list(golden.PROGRAMS))
def test_every_golden_program_is_the_strict_run_but_for_switches(name, strict):
    program = golden.PROGRAMS[name]
    ahead = golden.fingerprint(program())
    reference = golden.fingerprint(strict(program))
    ahead.pop("switches", None)
    reference.pop("switches", None)
    assert ahead == reference


def test_the_strict_reference_switches_more(strict):
    ahead = golden.PROGRAMS["rpc_ring"]().stats["switches"]
    reference = strict(golden.PROGRAMS["rpc_ring"]).stats["switches"]
    assert reference > ahead


# ----------------------------------------------------------- failure paths
def _verdict(body, **kw):
    """How a 2-rank job on one node each ends: (type, rank, message)."""
    try:
        upcxx.run_spmd(body, 2, ppn=1, **kw)
    except SimError as err:
        return type(err).__name__, getattr(err, "rank", None), str(err)
    raise AssertionError("the job did not fail")


def _raise_at(t0, t1):
    """Rank 0 raises at ``t0``, rank 1 at ``t1`` (simulated seconds)."""

    def body():
        me = upcxx.rank_me()
        upcxx.compute(t1 if me else t0)
        raise ValueError(f"rank {me} at {upcxx.sim_now()!r}")

    return body


@pytest.mark.parametrize("t0, t1", [(1e-6, 1e-6 + L / 3), (1e-6 + L / 3, 1e-6)])
def test_of_two_ranks_raising_less_than_L_apart_the_earlier_fails_the_run(t0, t1, strict):
    # rank 0 runs first and yields at t0; rank 1, less than L behind or
    # ahead of it, keeps the baton up to its own raise and must let rank
    # 0 catch up before its failure counts
    first = 0 if t0 < t1 else 1
    got = _verdict(_raise_at(t0, t1))
    assert got == strict(lambda: _verdict(_raise_at(t0, t1)))
    assert got[:2] == ("RankFailure", first)


def test_a_rank_overrunning_max_time_ahead_of_a_failing_rank_does_not_fail_the_run(strict):
    # rank 1 crosses max_time from 1e-6 + L/3, ahead of rank 0, which
    # raises at 1e-6: the strict schedule meets rank 0's error first
    def body():
        me = upcxx.rank_me()
        upcxx.compute(1e-6 + (L / 3 if me else 0.0))
        if me == 0:
            raise ValueError("rank 0")
        upcxx.compute(1e-6)

    got = _verdict(body, max_time=1.5e-6)
    assert got == strict(lambda: _verdict(body, max_time=1.5e-6))
    assert got[:2] == ("RankFailure", 0)


@pytest.mark.usefixtures("no_cycle_collector")
def test_a_rank_that_loses_the_race_to_fail_leaves_nothing_behind():
    """Rank 1 raises ahead of rank 0 and, syncing, is aborted by rank 0's
    earlier failure: the job is still freed by reference counting."""
    refs = []

    def body():
        rt = upcxx.runtime_here()
        refs.extend(weakref.ref(o) for o in (rt, rt.world, rt.conduit.segment(rt.rank)))
        me = upcxx.rank_me()
        upcxx.compute(1e-6 + (L / 3 if me else 0.0))
        raise ValueError(f"rank {me}")

    rank = None
    try:
        upcxx.run_spmd(body, 2, ppn=1)
    except RankFailure as err:
        rank = err.rank
    assert rank == 0
    assert len(refs) == 6 and all(r() is None for r in refs)


def test_a_failure_keeps_its_cause():
    with pytest.raises(RankFailure) as ei:
        upcxx.run_spmd(_raise_at(1e-6 + L / 3, 1e-6), 2, ppn=1)
    assert isinstance(ei.value.__cause__, ValueError)
    assert str(ei.value.__cause__) == f"rank 1 at {1e-6!r}"


# ----------------------------------------------- the gate, on a bare scheduler
def test_a_bare_scheduler_is_strict():
    assert Scheduler(2).lookahead == 0.0
    with pytest.raises(ValueError):
        Scheduler(2, lookahead=-1e-9)


def test_an_event_naming_no_rank_waits_for_every_ready_rank():
    """Rank 0 runs ahead of READY rank 1 and posts two events due before
    it would yield: the one that names rank 0 fires at once, the one that
    names nobody only when rank 1 has caught up with it."""
    fired = {}

    def body(r):
        s = current_scheduler()
        if r == 0:
            s.charge(0.5e-6)  # less than L ahead of rank 1, still at 0
            t = s.now() + 0.1e-6

            def note(name):
                ready = [c.clock for c in s._ranks if c.state == _READY]
                fired[name] = min(ready, default=None)

            s.post_at(t, lambda: note("mine"), 0)
            s.post_at(t, lambda: note("anyone"))
            s.charge(0.2e-6)
            return s.now()
        s.charge(2e-6)
        return s.now()

    Scheduler(2, lookahead=1e-6).run(body)
    assert fired["mine"] == 0.0  # rank 1 was still READY at 0
    assert fired["anyone"] >= 0.6e-6  # nobody READY behind the event


def test_a_shared_log_trails_simulated_order_by_less_than_L():
    """A Python object shared outside the conduit sees the ranks in host
    order.  That may differ from simulated order, by less than ``L``: a
    rank an event wakes far behind the running one runs before the
    running rank acts again."""
    log = []

    def body(r):
        s = current_scheduler()
        if r == 1:
            s.block("until rank 0 wakes me")
            log.append(s.now())
            return
        s.charge(2e-6)  # rank 1 blocks meanwhile
        s.post_at(2.5e-6, lambda: s.wake(1, 2.5e-6), 1)
        s.charge(4e-6)  # the wake fires in this charge's drain
        log.append(s.now())

    Scheduler(2, lookahead=1e-6).run(body)
    assert log == [2.5e-6, 6e-6]
