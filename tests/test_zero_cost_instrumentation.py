"""Hot-path "zero-cost-when-off" regression pins.

The perf-gate post-mortem (docs/simulator.md §6) traced the coroutine
speedup loss to observability/reliability bookkeeping leaking into the
common path: span sids minted whenever a SpanBuffer merely *existed*,
per-op metrics probes, and per-op allocations.  These tests pin the
repaired contract so the next bookkeeping PR cannot silently regress the
gate again:

- with spans/metrics/faults all disabled, a DHT workload mints **zero**
  span sids and records **zero** spans;
- a constructed-but-``enabled=False`` SpanBuffer is indistinguishable
  from no buffer at all (the runtime nulls it once at startup — the
  single cached enabled-check the op layers rely on);
- the run stays inside a fixed event, CompQItem- and RMA-record-allocation
  budget (the free lists must keep absorbing per-op churn);
- an ``rput`` in flight is one record plus its heap entry — counted in
  GC-tracked objects, not timed;
- :meth:`DwellHistogram.percentile` boundary behavior (empty, single
  sample, p0/p100) stays exact, since the metrics layer is what the
  zero-cost discipline keeps off the hot path.
"""

import gc

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.upcxx.rma import RmaOp
from repro.upcxx.runtime import CompQItem, Runtime
from repro.util.metrics import DwellHistogram
from repro.util.spans import SpanBuffer
from repro.util.telemetry import RankTelemetry, Telemetry

#: DHT smoke geometry: small enough for CI, big enough to cross every
#: op-lifecycle stage (rpc + reply + rput chains, barriers, progress)
N_RANKS = 8
N_INSERTS = 4

#: budgets for the instrumentation-off run, with headroom over the
#: measured values (288 events fired, 8 fresh CompQItems in a cold
#: process) so legitimate scheduler changes don't flake the pin but a
#: per-op leak (one extra event or pool-missing allocation per insert:
#: 8 ranks x 4 inserts = 32+ per leak) trips it immediately
EVENT_BUDGET = 450
COMPQ_ALLOC_BUDGET = 64
#: fresh rput/rget records in the same run (measured: 8, one per rank —
#: after its first rput each rank reuses the record); a per-op leak is 32+
RMAOP_ALLOC_BUDGET = 24


def _dht_body():
    from repro.apps.dht import DhtRmaLz

    dht = DhtRmaLz()
    rng = upcxx.runtime_here().rng.spawn("zero-cost-test")
    payload = bytes(512)
    upcxx.barrier()
    for _ in range(N_INSERTS):
        dht.insert(rng.key64(), payload).wait()
    upcxx.barrier()
    return upcxx.sim_now()


def _run_counted(monkeypatch, **spmd_kwargs):
    """Run the DHT body counting span-sid mints, span records, and fresh
    CompQItem and RmaOp constructions; returns (sids, records, allocs,
    stats), with the RmaOp count under ``stats["rmaop_allocs"]``."""
    counts = {"sids": 0, "records": 0, "allocs": 0, "ops": 0}

    orig_sid = Runtime.next_span_sid

    def counting_sid(self):
        counts["sids"] += 1
        return orig_sid(self)

    orig_record = SpanBuffer.record

    def counting_record(self, *a, **k):
        counts["records"] += 1
        return orig_record(self, *a, **k)

    orig_item_init = CompQItem.__init__

    def counting_init(self, *a, **k):
        counts["allocs"] += 1
        return orig_item_init(self, *a, **k)

    orig_op_init = RmaOp.__init__

    def counting_op_init(self, *a, **k):
        counts["ops"] += 1
        return orig_op_init(self, *a, **k)

    monkeypatch.setattr(RmaOp, "__init__", counting_op_init)
    monkeypatch.setattr(Runtime, "next_span_sid", counting_sid)
    monkeypatch.setattr(SpanBuffer, "record", counting_record)
    monkeypatch.setattr(CompQItem, "__init__", counting_init)
    stats: dict = {}
    upcxx.run_spmd(_dht_body, N_RANKS, ppn=8, seed=7, sched_stats=stats, **spmd_kwargs)
    stats["rmaop_allocs"] = counts["ops"]
    return counts["sids"], counts["records"], counts["allocs"], stats


def test_no_span_work_when_observers_off(monkeypatch):
    """spans/metrics/faults all off: zero sids, zero records, bounded
    event and allocation budgets."""
    sids, records, allocs, stats = _run_counted(monkeypatch)
    assert sids == 0, f"{sids} span sids minted with spans disabled"
    assert records == 0, f"{records} span records with spans disabled"
    assert stats["events_fired"] <= EVENT_BUDGET, stats
    assert allocs <= COMPQ_ALLOC_BUDGET, (
        f"{allocs} fresh CompQItem constructions (budget {COMPQ_ALLOC_BUDGET}): "
        "the free-list pool stopped absorbing per-op churn"
    )
    assert 0 < stats["rmaop_allocs"] <= RMAOP_ALLOC_BUDGET, (
        f"{stats['rmaop_allocs']} fresh RmaOp constructions (budget "
        f"{RMAOP_ALLOC_BUDGET}): fulfilled records are not being reused"
    )


def test_disabled_span_buffer_is_free(monkeypatch):
    """A constructed SpanBuffer with enabled=False must cost exactly what
    no buffer costs: the runtime nulls it once at startup, so no op-layer
    code ever sees it (the single cached enabled-check)."""
    spans = SpanBuffer(enabled=False)
    sids, records, _allocs, _stats = _run_counted(monkeypatch, spans=spans)
    assert sids == 0, f"{sids} sids minted for a disabled SpanBuffer"
    assert records == 0
    assert len(spans) == 0


def test_enabled_spans_still_record(monkeypatch):
    """Control arm: the counters above do observe real span traffic, so
    the zero assertions are meaningful."""
    spans = SpanBuffer()
    sids, records, _allocs, _stats = _run_counted(monkeypatch, spans=spans)
    assert sids > 0
    assert records > 0
    assert len(spans) > 0


def test_workload_results_identical_with_and_without_observers():
    """Observability must stay passive: same simulated answer either way."""
    stats_a: dict = {}
    stats_b: dict = {}
    res_off = upcxx.run_spmd(_dht_body, N_RANKS, ppn=8, seed=7, sched_stats=stats_a)
    res_on = upcxx.run_spmd(
        _dht_body, N_RANKS, ppn=8, seed=7, spans=SpanBuffer(), sched_stats=stats_b
    )
    assert res_off == res_on
    assert stats_a["events_fired"] == stats_b["events_fired"]


# ------------------------------------------------------ per-op object cost
#: GC-tracked objects one unfulfilled rput may keep alive: the record, its
#: pending event's heap entry and that entry's causal stamp (7.0 before the
#: record replaced the Handle/closure/CompQItem graph)
INFLIGHT_OBJECTS_PER_PUT = 3.0


@pytest.mark.usefixtures("no_cycle_collector")
@pytest.mark.parametrize("size", [8, 64 * 1024], ids=["staged", "on-the-wire"])
def test_rput_in_flight_is_one_record(size):
    """Pin the mechanism by count, not by time.  2 000 promise-tracked puts
    issued without user progress: at 8 B nearly all have been acknowledged
    and wait in compQ (the record alone), at 64 KiB the NIC paces them and
    nearly all are still events on the heap (record + entry + stamp).
    ``gc.get_count()[0]`` is allocations minus frees of GC-tracked objects
    since the last collection, and the fixture keeps the collector off."""
    n = 2000

    def body():
        landing = upcxx.new_array(np.uint8, size)
        dest = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        out = None
        if upcxx.rank_me() == 0:
            payload = bytes(size)
            p = upcxx.Promise()
            base = gc.get_count()[0]
            for _ in range(n):
                upcxx.rput(payload, dest, cx=upcxx.operation_cx.as_promise(p))
            in_flight = gc.get_count()[0] - base
            rt = upcxx.runtime_here()
            assert len(rt.actQ) == n  # nothing was fulfilled behind our back
            p.finalize().wait()
            out = (in_flight, gc.get_count()[0] - base, len(rt.actQ))
        upcxx.barrier()
        return out

    in_flight, after_drain, active = upcxx.run_spmd(body, 2, ppn=1)[0]
    # + 16: what the loop itself holds (the promise, its future, a Completion)
    assert in_flight <= INFLIGHT_OBJECTS_PER_PUT * n + 16, (
        f"{in_flight / n:.2f} GC-tracked objects per unfulfilled rput"
    )
    assert active == 0
    if size == 8:
        # what is left is the free list; (the 64 KiB case parks ~2 n tuples
        # in the interpreter's tuple free list, which the count cannot see
        # being released)
        assert after_drain <= RmaOp.POOL_MAX + 16, after_drain


# ------------------------------------------------------- telemetry zero-cost
def _run_telemetry_counted(monkeypatch, **spmd_kwargs):
    """Run the DHT body counting telemetry samples and ring appends."""
    counts = {"ticks": 0, "notes": 0}

    orig_tick = RankTelemetry.tick

    def counting_tick(self, *a, **k):
        counts["ticks"] += 1
        return orig_tick(self, *a, **k)

    orig_note = RankTelemetry.note

    def counting_note(self, *a, **k):
        counts["notes"] += 1
        return orig_note(self, *a, **k)

    monkeypatch.setattr(RankTelemetry, "tick", counting_tick)
    monkeypatch.setattr(RankTelemetry, "note", counting_note)
    upcxx.run_spmd(_dht_body, N_RANKS, ppn=8, seed=7, **spmd_kwargs)
    return counts["ticks"], counts["notes"]


def test_no_telemetry_work_when_off(monkeypatch):
    """No sink installed: zero window samples, zero flight-recorder
    appends — the telemetry surface must be a single is-None check."""
    ticks, notes = _run_telemetry_counted(monkeypatch)
    assert ticks == 0, f"{ticks} telemetry ticks with telemetry disabled"
    assert notes == 0, f"{notes} ring appends with telemetry disabled"


def test_disabled_telemetry_sink_is_free(monkeypatch):
    """A constructed Telemetry with enabled=False is indistinguishable
    from no sink (the runtime nulls it once at startup)."""
    tel = Telemetry(enabled=False)
    ticks, notes = _run_telemetry_counted(monkeypatch, telemetry=tel)
    assert ticks == 0
    assert notes == 0
    assert tel.ranks == {}


def test_enabled_telemetry_still_records(monkeypatch):
    """Control arm: the counters do observe real telemetry traffic."""
    tel = Telemetry()
    ticks, notes = _run_telemetry_counted(monkeypatch, telemetry=tel)
    assert ticks > 0
    assert notes > 0
    assert all(rt.windows for rt in tel.ranks.values())


def test_budgets_hold_with_telemetry_off(monkeypatch):
    """The original event/alloc budgets are unchanged by the telemetry
    subsystem existing: off means off."""
    sids, records, allocs, stats = _run_counted(monkeypatch)
    assert sids == 0 and records == 0
    assert stats["events_fired"] <= EVENT_BUDGET, stats
    assert allocs <= COMPQ_ALLOC_BUDGET


def test_telemetry_is_passive():
    """Same simulated answer and event count with the sink armed."""
    stats_a: dict = {}
    stats_b: dict = {}
    res_off = upcxx.run_spmd(_dht_body, N_RANKS, ppn=8, seed=7, sched_stats=stats_a)
    res_on = upcxx.run_spmd(
        _dht_body, N_RANKS, ppn=8, seed=7, telemetry=Telemetry(), sched_stats=stats_b
    )
    assert res_off == res_on
    assert stats_a["events_fired"] == stats_b["events_fired"]


# ------------------------------------------------- DwellHistogram boundaries
def test_percentile_empty_histogram():
    h = DwellHistogram()
    assert h.percentile(50) == 0.0
    assert h.percentile(0) == 0.0
    assert h.percentile(100) == 0.0


def test_percentile_single_sample():
    h = DwellHistogram()
    h.add(5e-9)
    for q in (0, 50, 100):
        assert h.percentile(q) == pytest.approx(5e-9)


def test_percentile_p0_p100_clamp_to_observed_range():
    h = DwellHistogram()
    samples = (1e-9, 3e-9, 1e-8, 2.5e-7, 1e-6)
    for s in samples:
        h.add(s)
    assert h.percentile(0) == pytest.approx(min(samples))
    assert h.percentile(100) == pytest.approx(max(samples))
    p50 = h.percentile(50)
    assert min(samples) <= p50 <= max(samples)


def test_percentile_rejects_out_of_range():
    h = DwellHistogram()
    h.add(1e-9)
    with pytest.raises(ValueError):
        h.percentile(-1)
    with pytest.raises(ValueError):
        h.percentile(101)


def test_percentile_zero_duration_samples():
    h = DwellHistogram()
    for _ in range(4):
        h.add(0.0)
    assert h.percentile(0) == 0.0
    assert h.percentile(50) == 0.0
    assert h.percentile(100) == 0.0
