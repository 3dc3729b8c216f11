"""Hot-path "zero-cost-when-off" regression pins.

The perf-gate post-mortem (docs/simulator.md §6) traced the coroutine
speedup loss to observability/reliability bookkeeping leaking into the
common path: span sids minted whenever a SpanBuffer merely *existed*,
per-op metrics probes, and per-op allocations.  These tests pin the
repaired contract so the next bookkeeping PR cannot silently regress the
gate again:

- with spans/metrics/faults all disabled, a DHT workload mints **zero**
  span sids and appends **zero** span rows, and so does a KV workload
  that reaches every aggregator and replication span site;
- with every observer absent, each rank's sink tuple is empty and no sink
  boundary runs at all (off means absent: there is no disabled observer);
- with only telemetry on, no per-operation boundary is hooked: telemetry
  makes 0 calls per AM, injection or completion;
- the run stays inside a fixed event budget, builds exactly one RMA
  record per rput and constructs no CompQItem at all (every op is its own
  record);
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
from repro.util.metrics import DwellHistogram, Metrics, RankMetrics
from repro.util.sink import BOUNDARIES, Sink
from repro.util.spans import SpanBuffer
from repro.util.telemetry import RankTelemetry, Telemetry
from repro.util.trace import TraceBuffer

#: DHT smoke geometry: small enough for CI, big enough to cross every
#: op-lifecycle stage (rpc + reply + rput chains, barriers, progress)
N_RANKS = 8
N_INSERTS = 4

#: budgets for the instrumentation-off run: events with headroom over the
#: measured 288, so legitimate scheduler changes don't flake the pin but a
#: per-op leak (one extra event per insert: 8 ranks x 4 inserts = 32+)
#: trips it immediately; CompQItems exactly (measured: 0 — rpc, its reply
#: and rput are each their own compQ record, and a barrier builds none)
EVENT_BUDGET = 450
COMPQ_ALLOC_BUDGET = 0
#: rput/rget records in the same run: exactly one per insert's rput
#: (8 ranks x 4 inserts; the DHT body issues no rget)
RMAOP_ALLOCS = N_RANKS * N_INSERTS


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


def _kv_body():
    """KV tiny at replication 2 with one credit per peer, two-entry batches
    and the hot-key cache: senders stall on credits, reads hit the cache,
    and (under ``KV_CRASH``) a death is excluded, re-replicated and
    anti-entropy synced."""
    from repro.apps.kvservice import default_config, kv_rank_body

    cfg = dict(default_config("tiny"), replication=2, credits=1, batch_size=2, rate=4e5)
    return kv_rank_body(cfg)


KV_CRASH = "seed=7,crash=3@3.5e-4,survive=1"
#: the span phases only the service layers record
SERVICE_PHASES = {"credit_wait", "cache_hit", "fill_share", "death_exclude", "rereplicate",
                  "anti_entropy"}


def _run_counted(monkeypatch, body=_dht_body, ppn=8, **spmd_kwargs):
    """Run ``body`` (default: the DHT body) on 8 ranks counting span-sid
    mints, span rows appended (the sinks' and ``record``'s one append
    path), CompQItem constructions and RmaOp constructions; returns
    (sids, rows, allocs, stats), with the RmaOp count under
    ``stats["rmaop_allocs"]``."""
    counts = {"sids": 0, "rows": 0, "allocs": 0, "ops": 0}

    orig_sid = Runtime.next_span_sid

    def counting_sid(self):
        counts["sids"] += 1
        return orig_sid(self)

    class CountedRows(list):
        def append(self, row):
            counts["rows"] += 1
            list.append(self, row)

    orig_buffer_init = SpanBuffer.__init__

    def counting_buffer_init(self):
        orig_buffer_init(self)
        self._rows = CountedRows()

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
    monkeypatch.setattr(SpanBuffer, "__init__", counting_buffer_init)
    monkeypatch.setattr(CompQItem, "__init__", counting_init)
    spans = spmd_kwargs.get("spans")
    if spans is not None:  # a buffer the caller built before the patch
        spans._rows = CountedRows()
    stats: dict = {}
    upcxx.run_spmd(body, N_RANKS, ppn=ppn, seed=7, sched_stats=stats, **spmd_kwargs)
    stats["rmaop_allocs"] = counts["ops"]
    return counts["sids"], counts["rows"], counts["allocs"], stats


def test_no_span_work_when_observers_off(monkeypatch):
    """spans/metrics/faults all off: zero sids, zero rows, a bounded
    event budget and exact allocation counts."""
    sids, rows, allocs, stats = _run_counted(monkeypatch)
    assert sids == 0, f"{sids} span sids minted with spans disabled"
    assert rows == 0, f"{rows} span rows with spans disabled"
    assert stats["events_fired"] <= EVENT_BUDGET, stats
    assert allocs <= COMPQ_ALLOC_BUDGET, (
        f"{allocs} CompQItem constructions (budget {COMPQ_ALLOC_BUDGET}): "
        "an operation on the DHT path is wrapped in a compQ item again"
    )
    assert stats["rmaop_allocs"] == RMAOP_ALLOCS, (
        f"{stats['rmaop_allocs']} RmaOp constructions for {RMAOP_ALLOCS} rputs"
    )


def test_no_span_work_on_the_service_path_when_spans_off(monkeypatch):
    """The same counters over a KV body that reaches every aggregator and
    replication span site (credit stalls, cache hits, a survivable crash):
    zero sids and zero rows with spans off."""
    sids, rows, _allocs, _stats = _run_counted(monkeypatch, _kv_body, ppn=4, faults=KV_CRASH)
    assert (sids, rows) == (0, 0)


def test_service_spans_still_record(monkeypatch):
    """Control arm for the KV body: with spans on, the counters see its
    traffic, the row counter sees every row the buffer holds, and the
    buffer holds every service-layer phase (its RPCs' rows expand to more
    records than there are rows)."""
    spans = SpanBuffer()
    sids, rows, _allocs, _stats = _run_counted(
        monkeypatch, _kv_body, ppn=4, faults=KV_CRASH, spans=spans
    )
    assert sids > 0 and rows == len(spans._rows) > 0 and rows < len(spans)
    assert {r[4] for r in spans} >= SERVICE_PHASES


def test_absent_observers_leave_no_sink(monkeypatch):
    """Off means absent: with no metrics, telemetry, trace or spans every
    rank's sink tuple is empty, and no sink boundary runs on the DHT body
    (each one raises if it is ever called)."""

    def boom(self, *a, **k):
        raise AssertionError(f"{type(self).__name__} boundary ran with observers absent")

    for cls in (Sink, RankMetrics, RankTelemetry, TraceBuffer, SpanBuffer):
        for name in BOUNDARIES:
            if name in vars(cls):
                monkeypatch.setattr(cls, name, boom)
    sinks = []

    def body():
        sinks.append(upcxx.runtime_here()._sinks)
        return _dht_body()

    upcxx.run_spmd(body, N_RANKS, ppn=8, seed=7)
    assert sinks == [()] * N_RANKS


def test_every_boundary_is_reached(monkeypatch):
    """Control arm: a sink watching every boundary sees each of them at
    least once on the DHT body (death is absent: no rank dies), so the
    test above is meaningful."""
    seen = set()

    class Watcher(Sink):
        pass

    for name in BOUNDARIES:
        setattr(Watcher, name, lambda self, *a, _n=name: seen.add(_n))
    monkeypatch.setattr(TraceBuffer, "rank", lambda self, r: Watcher())
    upcxx.run_spmd(_dht_body, N_RANKS, ppn=8, seed=7, trace=TraceBuffer())
    assert seen == set(BOUNDARIES) - {"death"}


def test_enabled_spans_still_record(monkeypatch):
    """Control arm: the counters above do observe real span traffic, so
    the zero assertions are meaningful."""
    spans = SpanBuffer()
    sids, rows, _allocs, _stats = _run_counted(monkeypatch, spans=spans)
    assert sids > 0
    assert rows > 0
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
        # every record is gone once fulfilled; (the 64 KiB case parks ~2 n
        # tuples in the interpreter's tuple free list, which the count
        # cannot see being released)
        assert after_drain <= 16, after_drain


#: operations of each kind counted after the warm-up
OPS_COUNTED = 500


def _rpc_traffic(n, env):
    for i in range(n):
        assert upcxx.rpc(1, lambda x: x + 1, i).wait() == i + 1
    for i in range(n):
        upcxx.rpc_ff(1, lambda x: None, i)
    upcxx.rpc(1, lambda: None).wait()  # the target has run every rpc_ff


def _atomic_traffic(n, env):
    ad, counter = env["ad"], env["counter"]
    p = upcxx.Promise()
    for _ in range(n):
        ad.fetch_add(counter, 1).wait()
        ad.add(counter, 1, cx=upcxx.operation_cx.as_promise(p))
    p.finalize().wait()


def _vis_traffic(n, env):
    cells = env["cells"]
    for _ in range(n):
        upcxx.rput_strided(np.ones((2, 2)), cells, 4).wait()
        upcxx.rget_irregular([cells, cells + 4]).wait()


def _copy_traffic(n, env):
    for _ in range(n):
        upcxx.copy(np.ones(4), env["dev"]).wait()  # to a remote device
        upcxx.copy(env["cells"], env["mine"], count=4).wait()  # from a remote host


@pytest.mark.parametrize(
    "traffic", [_rpc_traffic, _atomic_traffic, _vis_traffic, _copy_traffic],
    ids=["rpc", "atomics", "vis", "copy"],
)
def test_operations_build_no_helper_objects(monkeypatch, traffic):
    """Every operation is one record: after a warm-up, N rpc round trips
    plus N rpc_ff (each request and reply exactly one ``RpcOp``), or N
    pairs of atomics, VIS operations or copies, construct no ``CompQItem``
    (the operation's ``Transfer`` record is its own completion handle).
    Only rank 0's traffic runs while counting: the target waits in
    ``wait_quiet``, which allocates none."""
    from repro.upcxx.rpc import RpcOp

    counting = [False]
    counts = {}
    for cls in (CompQItem, RpcOp):
        counts[cls.__name__] = 0

        def counted(self, *a, _orig=cls.__init__, _name=cls.__name__, **k):
            if counting[0]:
                counts[_name] += 1
            _orig(self, *a, **k)

        monkeypatch.setattr(cls, "__init__", counted)
    done = []

    def body():
        cells = upcxx.new_array(np.float64, 16)
        counter = upcxx.new_array(np.int64, 1)
        dev = upcxx.Device(segment_size=1 << 16).allocate(np.float64, 4)
        env = {
            "ad": upcxx.AtomicDomain(["fetch_add", "add"], np.int64),
            "cells": upcxx.broadcast(cells, root=1).wait(),
            "counter": upcxx.broadcast(counter, root=1).wait(),
            "dev": upcxx.broadcast(dev, root=1).wait(),
            "mine": cells,
        }
        upcxx.barrier()
        if upcxx.rank_me() == 0:
            traffic(50, env)
            counting[0] = True
            traffic(OPS_COUNTED, env)
            counting[0] = False
            upcxx.rpc_ff(1, done.append, True)
        else:
            rt = upcxx.runtime_here()
            rt.wait_quiet(lambda: bool(done))
        upcxx.barrier()

    upcxx.run_spmd(body, 2, ppn=1)
    # N requests + N replies + N rpc_ff + the closing round trip's two
    rpc_ops = 3 * OPS_COUNTED + 2 if traffic is _rpc_traffic else 0
    assert counts == {"CompQItem": 0, "RpcOp": rpc_ops}, counts


# ------------------------------------------------------- telemetry zero-cost
#: the boundaries the progress engine meets once per operation or message
PER_OP = ("inject", "poll", "execute")


def _run_telemetry_counted(monkeypatch, **spmd_kwargs):
    """Run the DHT body counting calls into each telemetry boundary, the
    AMs polled, and the ``t_enq`` stamps ``defer`` wrote; each rank also
    reports its per-op hook tuples."""
    calls, stamps, ams, hooks = {}, [], [], []
    for name in BOUNDARIES:
        if name in vars(RankTelemetry):
            def counting(self, *a, _name=name, _orig=getattr(RankTelemetry, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _orig(self, *a)

            monkeypatch.setattr(RankTelemetry, name, counting)
    orig_defer = Runtime.defer

    def stamping_defer(self, op):
        orig_defer(self, op)
        stamps.append(op.t_enq)

    monkeypatch.setattr(Runtime, "defer", stamping_defer)

    def body():
        rt = upcxx.runtime_here()
        hooks.append(tuple(getattr(rt._on, b) for b in PER_OP))
        out = _dht_body()
        ams.append(rt._inbox.n_polled)
        return out

    upcxx.run_spmd(body, N_RANKS, ppn=8, seed=7, **spmd_kwargs)
    return calls, stamps, sum(ams), hooks


def test_no_telemetry_work_when_off(monkeypatch):
    """No sink installed: zero calls into any telemetry boundary — the
    telemetry surface must be a single is-None check."""
    calls, _stamps, ams, _hooks = _run_telemetry_counted(monkeypatch)
    assert ams > 0
    assert calls == {}, f"telemetry boundaries ran with telemetry disabled: {calls}"


def test_telemetry_costs_nothing_per_operation(monkeypatch):
    """With only telemetry on, the per-op hooks are empty: telemetry makes
    0 calls per AM (and per injection or completion), and ``defer`` stamps
    no ``t_enq`` because nothing watches injection.  It is called at
    library entry (window edges) and once per rank at finish."""
    calls, stamps, ams, hooks = _run_telemetry_counted(monkeypatch, telemetry=Telemetry())
    assert hooks == [((), (), ())] * N_RANKS
    assert ams > 0
    per_op = sum(calls.get(b, 0) for b in PER_OP)
    assert per_op / ams == 0
    assert set(calls) == {"enter", "finish"} and calls["finish"] == N_RANKS, calls
    assert stamps and set(stamps) == {0.0}


def test_enabled_telemetry_still_records(monkeypatch):
    """Control arm: the counters see real telemetry traffic, and the stamp
    counter sees ``t_enq`` once an observer watches injection."""
    tel = Telemetry()
    calls, _stamps, _ams, _hooks = _run_telemetry_counted(monkeypatch, telemetry=tel)
    assert calls["enter"] > 0
    assert all(rt.windows for rt in tel.ranks.values())
    _calls, stamps, _ams, hooks = _run_telemetry_counted(monkeypatch, metrics=Metrics())
    assert all(inject for inject, _poll, _execute in hooks)
    assert any(t > 0.0 for t in stamps)


def test_budgets_hold_with_telemetry_off(monkeypatch):
    """The original event/alloc budgets are unchanged by the telemetry
    subsystem existing: off means off."""
    sids, rows, allocs, stats = _run_counted(monkeypatch)
    assert sids == 0 and rows == 0
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
