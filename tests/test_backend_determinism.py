"""Backend determinism: the in-process scheduler reproduces the golden
fingerprints, and the sharded backend is bit-identical to it.

The sharded scheduler distributes the coroutine machinery across forked
worker processes but must preserve the simulation *exactly*: same
simulated times, same results, same trace — down to the last bit.  Each
canonical program (``tests/golden.py``) runs on both backends:

- coroutines == ``tests/golden/fingerprints.json`` (results sha256,
  canonical trace digest — stable (time, rank) order, invariant to a
  backend's legitimate same-instant interleaving freedom — span
  fingerprint, events posted/fired, switches);
- sharded == coroutines on all of those but ``switches`` (each worker
  dispatches only its own ranks, so the yield pattern differs; each
  logical event exists exactly once, on exactly one shard).

Sharded-specific rules exercised here: SPMD bodies must *return* results
(worker-process side effects don't reach the parent), and raw
cross-shard wakes are an error rather than a silent no-op.

Also here: the lost-wakeup regression test for sticky ``pending_wake``
consumption (wakes arriving while a rank is runnable must be drained in
timestamp order, never dropped), and the sharded lookahead-boundary
regression (an event landing *exactly* on a window edge must wait for
the next horizon round, at an unchanged timestamp).
"""

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.sim import BACKENDS
from repro.sim.coop import Scheduler, current_scheduler, run_spmd
from tests import golden
from tests.golden import lookahead_mode as _lookahead_mode, shards as _shards


# ------------------------------------------- coroutines == golden == sharded
@pytest.mark.parametrize(
    "program", ["dht_totals", "rpc_ring", "rpc_ring_ppn2", "sched_mixed_wakes",
                "mixed_collectives", "span_mix"]
)
def test_program_reproduces_golden_on_both_backends(program):
    ref, _ = golden.reproduces(program)
    assert len(ref.trace) > 0


def test_fig3a_series_reproduces_golden_on_both_backends():
    ref, sharded = golden.reproduces("fig3a_series")
    series = ref.results[0][0]
    assert sorted(series) == [8, 64, 512, 4096, 65536] and min(series.values()) > 0
    assert sharded.stats["n_shards"] == 2


def test_dht_totals_multishard_reproduces_golden():
    _, sharded = golden.reproduces("dht_totals_ppn4", n_shards=4)
    stats = sharded.stats
    assert stats["n_shards"] == 4
    # per-shard accounting must decompose the global totals exactly
    per_shard = stats["per_shard"]
    assert len(per_shard) == 4
    assert sum(s["events_fired"] for s in per_shard) == stats["events_fired"]
    assert sum(s["switches"] for s in per_shard) == stats["switches"]


# ------------------------------------------------------- lost-wakeup guard
@pytest.mark.parametrize("backend", BACKENDS)
def test_pending_wakes_drain_in_timestamp_order(backend):
    """Wakes landing while a rank is RUNNING must not be lost or reordered.

    Rank 1 receives two out-of-order wakes (t=30us then t=10us) while it
    is still running.  When it then blocks, the *earlier* wake must be
    consumed first: rank 1 resumes at 10us, not 30us.  Before the
    sort-before-consume fix, the wake list was consumed in arrival order
    and the 10us wake could be shadowed by the 30us one.  (Sharded: the
    raw scheduler has no machine topology, so the job degenerates to one
    worker — the windowed dispatch/park machinery still runs.)
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

    out = run_spmd(body, 2, backend=backend)
    assert out[1] == [10e-6, 30e-6]


@pytest.mark.parametrize("backend", BACKENDS)
def test_spurious_past_wake_returns_immediately(backend):
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

    assert run_spmd(body, 2, backend=backend)[1] == 10e-6


def test_backend_factory_and_env(monkeypatch):
    from repro.sim import coop

    assert BACKENDS == ("coroutines", "sharded")
    for name in BACKENDS:
        sched = Scheduler(2, backend=name)
        assert sched.backend == name and isinstance(sched, Scheduler)
    monkeypatch.setenv(coop.BACKEND_ENV, "sharded")
    assert Scheduler(2).backend == "sharded"
    monkeypatch.delenv(coop.BACKEND_ENV)
    assert Scheduler(2).backend == coop.DEFAULT_BACKEND == "coroutines"


def test_unknown_backend_is_an_error_naming_the_valid_ones(monkeypatch):
    """A deleted or misspelt backend never falls back silently."""
    from repro.sim import coop

    gone = 'threads'
    with pytest.raises(ValueError) as ei:
        Scheduler(2, backend=gone)
    assert repr(gone) in str(ei.value) and str(BACKENDS) in str(ei.value)
    monkeypatch.setenv(coop.BACKEND_ENV, gone)
    with pytest.raises(ValueError) as ei:
        Scheduler(2)
    assert repr(gone) in str(ei.value) and str(BACKENDS) in str(ei.value)


def test_sharded_window_edge_event_bit_identical():
    """An event landing *exactly* on a window bound (t == k * lookahead)
    must not fire in that window (strict ``<`` gating) and must fire at an
    unchanged timestamp once the bound advances — the classic conservative
    -DES off-by-one.  Both ranks' final clocks must match the coroutine
    backend exactly."""
    from repro.gasnet.machine import Machine
    from repro.gasnet.network import AriesNetwork

    net = AriesNetwork()
    lookahead = net.latency_oneway

    def body_sharded(r):
        s = current_scheduler()
        if r == 0:
            for k in (1, 2, 3):
                # cross-shard wake envelopes firing exactly at k * lookahead
                s.emit_envelope(1, k * lookahead, "wake", 1)
            s.sleep(10 * lookahead)
        else:
            for _ in range(3):
                s.block("edge wait")
        return s.now()

    def body_coro(r):
        s = current_scheduler()
        if r == 0:
            for k in (1, 2, 3):
                s.post_at(k * lookahead, lambda k=k: s.wake(1, k * lookahead))
            s.sleep(10 * lookahead)
        else:
            for _ in range(3):
                s.block("edge wait")
        return s.now()

    ref = Scheduler(2, backend="coroutines").run(body_coro)
    with _shards(2):
        sched = Scheduler(2, backend="sharded")
        sched.configure_sharding(Machine.for_ranks(2, 1, name="haswell"), net)
        out = sched.run(body_sharded)
        assert sched.stats()["n_shards"] == 2
    assert out == ref
    assert out[1] == 3 * lookahead  # resumed by the last edge wake, exactly


def test_sharded_cross_shard_raw_wake_raises():
    """A raw scheduler wake aimed at a rank on another shard must fail
    loudly (it cannot honor the lookahead contract), not silently no-op."""
    from repro.gasnet.machine import Machine
    from repro.gasnet.network import AriesNetwork
    from repro.sim.errors import RankFailure, SimError

    def body(r):
        s = current_scheduler()
        if r == 0:
            s.charge(1e-6)
            s.wake(1, 5e-6)  # rank 1 lives on the other shard
            s.sleep(1e-5)
        else:
            s.block("waiting")
        return r

    with _shards(2):
        sched = Scheduler(2, backend="sharded")
        sched.configure_sharding(Machine.for_ranks(2, 1, name="haswell"), AriesNetwork())
        with pytest.raises((SimError, RankFailure), match="cross-shard wake"):
            sched.run(body)


# ----------------------------------- adaptive-lookahead invariance (v2)
def test_adaptive_lookahead_bit_identical_to_fixed():
    """Protocol v2's window bound gates only *when* a worker pauses to
    exchange, never the (fire_time, stamp) execution order — so adaptive
    lookahead must reproduce the fixed-lookahead (v1-bound) run exactly:
    in either mode the sharded run matches the coroutine run, which
    matches the golden file.  The only thing allowed to change is the
    number of windows."""
    window_stats = {}
    for mode in ("fixed", "adaptive"):
        with _lookahead_mode(mode):
            golden.reproduces("span_mix")
            with _shards(2):
                window_stats[mode] = golden.fig3a_series("sharded").stats
    # the knob is real: both modes ran, surfaced in stats, and widening
    # the idle provision can only merge windows, never add them
    assert window_stats["fixed"]["lookahead_mode"] == "fixed"
    assert window_stats["adaptive"]["lookahead_mode"] == "adaptive"
    assert window_stats["fixed"]["lookahead_mult_peak"] == 2.0
    assert window_stats["adaptive"]["windows"] <= window_stats["fixed"]["windows"]


def test_lookahead_mode_rejects_garbage():
    from repro.sim.errors import SimError

    with _lookahead_mode("turbo"):
        with pytest.raises(SimError, match="adaptive"):
            Scheduler(2, backend="sharded")


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

    base = run(None)
    traced = run(SpanBuffer())
    disabled = run(SpanBuffer(enabled=False))
    assert traced == base
    assert disabled == base


# ------------------------------------- sharded metrics merge (satellite)
def _metrics_mix_run(backend):
    """DHT-flavored run with metrics on; returns (results, metrics)."""
    from repro.apps.dht import DhtRmaLz
    from repro.util.metrics import Metrics

    def body():
        dht = DhtRmaLz()
        rng = upcxx.runtime_here().rng.spawn("dht-bench")
        payload = bytes(1024)
        upcxx.barrier()
        for _ in range(4):
            dht.insert(rng.key64(), payload).wait()
        upcxx.barrier()
        return upcxx.sim_now()

    metrics = Metrics()
    results = upcxx.run_spmd(
        body, 8, platform="haswell", ppn=4, metrics=metrics, backend=backend
    )
    return results, metrics


def test_sharded_metrics_merge_matches_coroutines():
    """Metrics collected in forked shard workers and merged at the parent
    must equal the single-process collection exactly: same per-rank
    queue-depth series, same attentiveness gaps, byte-identical export."""
    from repro.util.trace_export import dumps_metrics

    res_c, m_c = _metrics_mix_run("coroutines")
    with _shards(2):
        res_s, m_s = _metrics_mix_run("sharded")
    assert res_c == res_s
    # the headline attentiveness number survives the merge bit-for-bit
    gap_c = m_c.max_attentiveness_gap()
    assert gap_c > 0.0
    assert m_s.max_attentiveness_gap() == gap_c
    # every rank's queue-depth series made it home from its shard
    ranks_c = {rm.rank: rm for rm in m_c.ranks}
    ranks_s = {rm.rank: rm for rm in m_s.ranks}
    assert set(ranks_s) == set(ranks_c) == set(range(8))
    for r in range(8):
        assert len(ranks_s[r].queue_samples) > 0
        assert ranks_s[r].queue_samples == ranks_c[r].queue_samples
        assert ranks_s[r].max_gap == ranks_c[r].max_gap
    # and the full canonical export is byte-identical
    assert dumps_metrics(m_s) == dumps_metrics(m_c)
