"""Scheduler determinism: the one in-process scheduler reproduces the
golden fingerprints.

Each canonical program (``tests/golden.py``) must equal its entry in
``tests/golden/fingerprints.json``: results sha256, canonical trace
digest (stable (time, rank) order, invariant to the dispatch order of
same-instant events on different ranks), span fingerprint, events
posted/fired, switches.  The committed file is the whole reference
(docs/simulator.md §6); there is no second implementation to compare with.

Also here: the lost-wakeup regression test for sticky ``pending_wake``
consumption (wakes arriving while a rank is runnable must be drained in
timestamp order, never dropped).
"""

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.sim.coop import Scheduler, current_scheduler, run_spmd
from tests import golden


# ------------------------------------------------------ scheduler == golden
@pytest.mark.parametrize(
    "program", ["dht_totals", "dht_totals_ppn4", "rpc_ring", "rpc_ring_ppn2",
                "sched_mixed_wakes", "mixed_collectives", "span_mix"]
)
def test_program_reproduces_golden(program):
    assert len(golden.reproduces(program).trace) > 0


@pytest.mark.parametrize("faults", [None, golden.API_CHAOS_SPEC], ids=["fault-free", "chaos"])
@pytest.mark.parametrize("program", ["vis_mix", "atomics_mix", "remote_cx_mix", "copy_kinds"])
def test_api_surface_program_reproduces_golden(program, faults):
    name = program if faults is None else f"{program}[{faults}]"
    assert len(golden.reproduces(name).trace) > 0


def test_fig3a_series_reproduces_golden():
    series = golden.reproduces("fig3a_series").results[0][0]
    assert sorted(series) == [8, 64, 512, 4096, 65536] and min(series.values()) > 0


# ------------------------------------------------------- lost-wakeup guard
def test_pending_wakes_drain_in_timestamp_order():
    """Wakes landing while a rank is RUNNING must not be lost or reordered.

    Rank 1 receives two out-of-order wakes (t=30us then t=10us) while it
    is still running.  When it then blocks, the *earlier* wake must be
    consumed first: rank 1 resumes at 10us, not 30us.  Before the
    sort-before-consume fix, the wake list was consumed in arrival order
    and the 10us wake could be shadowed by the 30us one.
    """

    def body(r):
        s = current_scheduler()
        if r == 0:
            # deliver wakes to rank 1 while it is still RUNNING
            s.post(5e-6, lambda: s.wake(1, 30e-6))
            s.post(6e-6, lambda: s.wake(1, 10e-6))
            s.sleep(50e-6)
            return None
        s.charge(8e-6)  # stay RUNNING past both wake deliveries
        resumes = []
        s.block("first wait")
        resumes.append(s.now())
        s.block("second wait")
        resumes.append(s.now())
        return resumes

    out = run_spmd(body, 2)
    assert out[1] == [10e-6, 30e-6]


def test_spurious_past_wake_returns_immediately():
    """A pending wake at or before the rank's clock makes block() a no-op."""

    def body(r):
        s = current_scheduler()
        if r == 0:
            s.post(1e-6, lambda: s.wake(1, 2e-6))
            s.sleep(20e-6)
        else:
            s.charge(10e-6)  # wake lands while running, already in the past
            s.block("should not sleep")
            assert s.now() == 10e-6  # unchanged: spurious return
        return s.now()

    assert run_spmd(body, 2)[1] == 10e-6


def test_backend_keyword_is_a_type_error():
    """There is one scheduler and nothing selects it: ``backend=`` is an
    unknown keyword on every entry point, never a silent fallback."""
    from repro.mpisim import run_mpi

    with pytest.raises(TypeError):
        Scheduler(2, backend="sharded")
    with pytest.raises(TypeError):
        run_spmd(lambda r: r, 2, backend="coroutines")
    with pytest.raises(TypeError):
        upcxx.run_spmd(lambda: None, 2, backend="sharded")
    with pytest.raises(TypeError):
        run_mpi(lambda: None, 2, backend="sharded")


def test_spans_off_by_default_leaves_times_unchanged():
    """Enabling span tracing must not perturb a single simulated time."""
    from repro.util.spans import SpanBuffer

    def run(spans):
        def body():
            me = upcxx.rank_me()
            landing = upcxx.new_array(np.uint8, 1024)
            dest = upcxx.broadcast(landing, root=1).wait()
            upcxx.barrier()
            if me == 0:
                for _ in range(3):
                    upcxx.rput(bytes(512), dest).wait()
            upcxx.barrier()
            return upcxx.sim_now()

        return upcxx.run_spmd(body, 2, platform="haswell", ppn=1, spans=spans)

    assert run(SpanBuffer()) == run(None)
