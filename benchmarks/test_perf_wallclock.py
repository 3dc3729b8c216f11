"""Wall-clock perf smoke: the simulator itself must stay fast.

Runs the :mod:`repro.bench.perf_harness` workloads at tiny scale on both
scheduler backends and writes ``BENCH_perf.json``.  How fast the
simulator itself runs is ``perfbench/``'s job, not this file's: what is
checked here is result identity, schema coverage, the simulated-time
gates and the instrumentation-overhead ceilings.

The sharded backend's wall-clock ratio depends on physical core count
and is deliberately NOT gated here (a 1-core CI runner would flake
every run).  Its honest number still lands in ``BENCH_perf.json`` under
the ``sharded_vs_coroutines`` gate entry, marked advisory when the
runner can't meet the ≥4-core/≥4-shard requirement.
"""

import json
import os

import pytest

from repro.bench.perf_harness import CRASH_GATE, GATES, KV_GATE, WORKLOADS, run_harness
from repro.sim import BACKENDS

OUT_PATH = os.environ.get("REPRO_PERF_OUT", "BENCH_perf.json")

#: tiny-scale smoke uses 2 shards: exercises the cross-shard window
#: protocol even on a single-core runner without oversubscribing it
SMOKE_SHARDS = 2


@pytest.fixture(scope="module")
def report():
    # profile=True: the per-phase hot-path breakdown always rides in the
    # CI artifact, so a future gate regression is attributable from
    # BENCH_perf.json alone
    return run_harness(
        scale="tiny", repeat=2, out_path=OUT_PATH, shards=SMOKE_SHARDS, profile=True
    )


def test_harness_covers_all_workloads(report):
    assert set(report["workloads"]) == set(WORKLOADS)
    assert report["backends"] == list(BACKENDS)


def test_backends_produce_identical_results(report):
    for name, entry in report["workloads"].items():
        assert entry["results_identical"], f"{name}: backend results diverged"


def test_counters_populated(report):
    for name, entry in report["workloads"].items():
        for backend in BACKENDS:
            rec = entry[backend]
            assert rec["wall_s"] > 0
            assert rec["events_fired"] > 0, f"{name}/{backend}: no events recorded"
            assert rec["switches"] > 0, f"{name}/{backend}: no switches recorded"
            assert rec["peak_rss_kb"] > 0


def test_sharded_counters_match_reference(report):
    """Events posted/fired are backend-invariant; the sharded run must
    agree with coroutines exactly (switches legitimately differ: the
    sharded backend dispatches per-worker)."""
    for name, entry in report["workloads"].items():
        assert entry["sharded"]["events_fired"] == entry["coroutines"]["events_fired"], name
        # requested shards are clamped to the workload's node count
        assert 1 <= entry["sharded"]["n_shards"] <= SMOKE_SHARDS, name


def test_gate_entries_recorded(report):
    """Every gate template produces a filled entry; the sharded gate's
    ratio is recorded honestly but never asserted on (core-count bound)."""
    by_name = {g["name"]: g for g in report["gates"]}
    assert set(by_name) == {g["name"] for g in (*GATES, KV_GATE, CRASH_GATE)}
    svc = by_name["sharded_vs_coroutines"]
    assert svc["measured_speedup"] is not None
    assert "requirements_met" in svc
    # the aggregation gate is simulated-time: always filled, never advisory
    kv = by_name[KV_GATE["name"]]
    assert kv["measured_speedup"] is not None
    assert isinstance(kv["passed"], bool)
    assert not kv.get("advisory")
    assert kv["ablation"]["per_op_rpc"]["batch_size"] == 1


def test_no_non_advisory_gate_failure(report):
    """Hard gate: a non-advisory ``passed: false`` entry fails the job.

    CI previously accepted (and committed) a BENCH_perf.json whose gate
    read ``passed: false`` because no test asserted on the verdict — only
    on its type.  Advisory entries (runner below the gate's documented
    cpu/shard requirements) are exempt: their measured number is recorded
    honestly but reflects the runner, not the code under test.
    """
    failures = [
        f"{g['name']}: measured {g['measured_speedup']} < target {g['target_speedup']}"
        for g in report["gates"]
        if not g.get("skipped") and not g.get("advisory") and g["passed"] is False
    ]
    assert not failures, "non-advisory perf gate(s) failed: " + "; ".join(failures)


def test_profile_phase_breakdown_in_report(report):
    """Satellite: the per-phase hot-path breakdown lands in the artifact
    with sane fractions, and the instrumentation phase is ~free when no
    spans/metrics/trace are installed (the zero-cost-when-off claim,
    checked from CI's own artifact)."""
    bd = report["profile_phases"]
    assert bd["workload"] == "fig4a_dht"
    assert bd["n_fibers_profiled"] > 0
    fr = bd["fractions"]
    assert set(fr) >= {"scheduler", "conduit", "upcxx_api", "instrumentation"}
    assert all(0.0 <= v <= 1.0 for v in fr.values())
    assert abs(sum(fr.values()) - 1.0) < 0.01
    # the harness runs with no observers installed: instrumentation code
    # must not appear on the hot path at all
    assert fr["instrumentation"] < 0.01


def test_bench_perf_json_written(report):
    with open(OUT_PATH) as f:
        on_disk = json.load(f)
    assert on_disk["schema"] == "repro-perf/3"
    assert "gates" in on_disk
    assert on_disk["shards"] == SMOKE_SHARDS
    assert on_disk["cpus"] == os.cpu_count()


def test_span_attribution_in_report(report):
    """Satellite: BENCH_perf.json carries the causal-span attribution
    summary per backend, with bit-identical fingerprints."""
    attr = report["span_attribution"]
    assert set(attr) == set(BACKENDS)
    fps = {entry["fingerprint"] for entry in attr.values()}
    assert len(fps) == 1, "span fingerprints diverged across backends"
    for entry in attr.values():
        assert entry["n_spans"] > 0
        assert entry["attribution_s"]["total"] > 0.0


def test_peak_rss_recorded_per_backend(report):
    """Satellite: peak RSS (self + children for sharded workers) lands in
    every backend record."""
    for entry in report["workloads"].values():
        for backend in BACKENDS:
            rec = entry[backend]
            assert rec["peak_rss_kb"] > 0
            assert rec["peak_rss_children_kb"] >= 0


def _calmest_pair(once, on_arg, n_pairs=7):
    """Interleaved A/B overhead measurement, robust to CPU throttling.

    Shared/capped runners exhibit *multiplicative, slowly-varying* noise
    (frequency scaling, cgroup throttling): identical runs vary up to
    10x wall clock, and process-CPU time scales with them — so there is
    no noise-free clock to fall back on.  Best-of-N per arm (the old
    estimator) breaks when the two arms' minima land in different
    throttle windows.  Instead, run base/instrumented *pairs* and judge
    the overhead inside the calmest window: the pair with the smallest
    combined wall time.  Within one calm pair both arms ran at the same
    clock, so their ratio is an honest overhead estimate; even under
    sustained throttling the ratio stays honest because both arms are
    slowed equally — only a throttle transition mid-pair corrupts a
    pair, and that pair then loses the min by construction.

    Returns ``(base_s, with_s, base_res, with_res)`` from the winning
    pair (simulated results are deterministic, so any repeat's results
    are representative).
    """
    import gc

    pairs = []
    gc.disable()
    try:
        once(None)  # warm-up (imports, code objects)
        for _ in range(n_pairs):
            tb, base_res = once(None)
            tw, with_res = once(on_arg)
            pairs.append((tb + tw, tb, tw, base_res, with_res))
    finally:
        gc.enable()
    _, base_s, with_s, base_res, with_res = min(pairs, key=lambda p: p[0])
    return base_s, with_s, base_res, with_res


def test_span_tracing_overhead_under_5pct():
    """Acceptance gate: span tracing enabled on the perf-smoke DHT-style
    workload costs <5% wall clock vs disabled (plus a small absolute
    cushion so sub-100ms runs don't flake on scheduler jitter)."""
    import time

    import repro.upcxx as upcxx
    from repro.util.spans import SpanBuffer

    def body():
        # long enough (~1.5s calm) that sub-second CPU-clock throttle
        # swings average out *within* each run — see _calmest_pair
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        upcxx.barrier()
        acc = 0
        for i in range(24):
            acc += upcxx.rpc((me + i + 1) % n, lambda a, b: a + b, me, i).wait()
        upcxx.barrier()
        return (acc, upcxx.sim_now())

    spans = SpanBuffer()

    def once(arg):
        t0 = time.perf_counter()
        res = upcxx.run_spmd(body, 32, ppn=8, seed=3, spans=arg)
        return time.perf_counter() - t0, res

    base_s, with_s, base_res, with_res = _calmest_pair(once, spans)
    # tracing is passive: simulated results are untouched
    assert with_res == base_res
    assert len(spans) > 0
    assert with_s <= max(base_s * 1.05, base_s + 0.05), (
        f"span tracing overhead too high: {base_s:.3f}s -> {with_s:.3f}s"
    )


def test_reliable_delivery_bookkeeping_under_2pct(report):
    """Satellite gate: reliable-delivery bookkeeping costs <2% wall clock
    on the Fig. 3a / Fig. 4a harness-style paths (rput chains + RPC
    round-trips) when no faults are injected.

    Measured conservatively: the *whole* reliability machinery armed with
    an all-zero-rate plan (sequence numbers, retransmit-ladder evaluation,
    ack scheduling, channel state) vs faults disabled entirely (where the
    per-op cost is one ``faults is None`` branch).  Interleaved
    calmest-pair estimation (see :func:`_calmest_pair`) so throttling
    noise hits both arms symmetrically, with the same absolute cushion
    the span-tracing gate uses so sub-100ms runs don't flake.  Simulated
    results must be bit-identical between the arms, and the measured
    ratio is recorded into ``BENCH_perf.json``.
    """
    import time

    import numpy as np

    import repro.upcxx as upcxx
    from repro.sim.faults import FaultPlan

    def body():
        # Fig. 3a-style blocking rput chain + Fig. 4a-style RPC
        # round-trips, long enough that throttle swings average out
        # within each run (see _calmest_pair)
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        landing = upcxx.new_array(np.uint8, 512)
        dest = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        if me == 0:
            payload = bytes(512)
            for _ in range(60):
                upcxx.rput(payload, dest).wait()
        acc = 0
        for i in range(24):
            acc += upcxx.rpc((me + i + 1) % n, lambda a, b: a + b, me, i).wait()
        upcxx.barrier()
        return (acc, upcxx.sim_now())

    def once(faults):
        t0 = time.perf_counter()
        res = upcxx.run_spmd(body, 16, ppn=8, seed=3, faults=faults)
        return time.perf_counter() - t0, res

    plan = FaultPlan(seed=1)  # armed, all rates zero
    base_s, with_s, base_res, with_res = _calmest_pair(once, plan)
    # a zero-fault plan must be simulation-invisible
    assert with_res == base_res
    ratio = with_s / base_s if base_s > 0 else 1.0
    assert with_s <= max(base_s * 1.02, base_s + 0.05), (
        f"reliable-delivery bookkeeping overhead too high: "
        f"{base_s:.3f}s -> {with_s:.3f}s"
    )

    # record the measurement in the perf artifact for CI consumers
    try:
        with open(OUT_PATH) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        doc = {}
    doc["reliability_bookkeeping"] = {
        "gate": "zero_fault_overhead_under_2pct",
        "base_s": base_s,
        "with_s": with_s,
        "ratio": ratio,
        "passed": True,
    }
    with open(OUT_PATH, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)


def test_telemetry_overhead_under_2pct(report):
    """Acceptance gate: telemetry enabled (windowed rollups + flight
    recorder) costs <2% wall clock vs disabled on the same mixed
    rput/RPC workload the reliability gate uses.

    Telemetry is passive — results must be bit-identical with it on —
    and the measured ratio lands in ``BENCH_perf.json`` under
    ``telemetry_overhead`` for ``repro.tools.health`` to gate on.
    """
    import time

    import numpy as np

    import repro.upcxx as upcxx
    from repro.util import Telemetry

    def body():
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        landing = upcxx.new_array(np.uint8, 512)
        dest = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        if me == 0:
            payload = bytes(512)
            for _ in range(60):
                upcxx.rput(payload, dest).wait()
        acc = 0
        for i in range(24):
            acc += upcxx.rpc((me + i + 1) % n, lambda a, b: a + b, me, i).wait()
        upcxx.barrier()
        return (acc, upcxx.sim_now())

    last = {}

    def once(on):
        # fresh sink per run: rollup state must not accumulate across pairs
        tel = Telemetry() if on else None
        if on:
            last["tel"] = tel
        t0 = time.perf_counter()
        res = upcxx.run_spmd(body, 16, ppn=8, seed=3, telemetry=tel)
        return time.perf_counter() - t0, res

    base_s, with_s, base_res, with_res = _calmest_pair(once, True)
    # telemetry is passive: simulated results are untouched
    assert with_res == base_res
    # rollups actually filled (the run is several windows long)
    tel = last["tel"]
    assert all(len(rt.windows) > 0 for rt in tel.ranks.values())
    ratio = with_s / base_s if base_s > 0 else 1.0
    assert with_s <= max(base_s * 1.02, base_s + 0.05), (
        f"telemetry overhead too high: {base_s:.3f}s -> {with_s:.3f}s"
    )

    try:
        with open(OUT_PATH) as f:
            doc = json.load(f)
    except (OSError, ValueError):
        doc = {}
    doc["telemetry_overhead"] = {
        "gate": "telemetry_on_overhead_under_2pct",
        "base_s": base_s,
        "with_s": with_s,
        "ratio": ratio,
        "passed": True,
    }
    with open(OUT_PATH, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
