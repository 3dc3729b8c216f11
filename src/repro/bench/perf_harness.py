"""Wall-clock performance harness: how fast does the simulator itself run?

Every other module in ``repro.bench`` measures *simulated* time — the
physics of the modeled machine.  This one measures the *simulator*: for
representative Fig. 3a / 4a / 8 and kvservice workloads it runs the same
simulation on each scheduler backend and records wall-clock seconds,
scheduler events fired per second, rank switches per second, and peak
RSS.  Results are
written to ``BENCH_perf.json`` for the CI perf-smoke job.

Usage::

    PYTHONPATH=src python -m repro.bench.perf_harness --scale tiny
    PYTHONPATH=src python -m repro.bench.perf_harness --scale full --repeat 3
    # the 1024-rank Fig. 4a parallel-speedup measurement:
    PYTHONPATH=src python -m repro.bench.perf_harness --scale xl \
        --workloads fig4a_dht --shards 4

All workloads assert that every backend produces bit-identical simulated
results — a perf number from a wrong simulation is worthless.  Workload
bodies therefore *return* their measurements instead of mutating
enclosing scope: the sharded backend runs them in forked worker
processes, where closure mutation would be lost.

Gates
-----
``BENCH_perf.json`` carries one gate entry per backend pair (see
:data:`GATES`), each with its own target, the measured number, and a
pass/fail verdict plus the environment facts (CPU count, shard count)
needed to interpret it.  Parallel speedup is the sharded backend's job
and only meaningful on a multi-core runner; a ratio between two of our
own backends is not a performance claim (``perfbench/`` measures the
simulator's own speed).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform as _platform
import resource
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim import BACKENDS
from repro.sim.shard import SHARDS_ENV

#: shard count used for the sharded backend when ``$REPRO_SIM_SHARDS``
#: and ``--shards`` are both absent: one per core, capped at 4 (the gate
#: configuration) — more shards than cores only adds window overhead
DEFAULT_SHARDS = max(1, min(4, os.cpu_count() or 1))

GATE_WORKLOAD = "fig4a_dht"

#: per-backend-pair acceptance gates; ``measured`` and ``passed`` are
#: filled in by :func:`run_harness`.  Targets are documented inline —
#: BENCH_perf.json carries the rationale so a reader of the artifact
#: alone can interpret the verdict.
GATES = (
    {
        "name": "sharded_vs_coroutines",
        "workload": GATE_WORKLOAD,
        "metric": "wall_s coroutines/sharded",
        "target_speedup": 2.0,
        "requires": {"min_cpus": 4, "min_shards": 4},
        "rationale": (
            "conservative-window parallel DES across >=4 shards on >=4 "
            "cores at full/xl scale; on runners below the requirement the "
            "measured number is still recorded honestly but the gate is "
            "marked advisory (window barriers + pipe marshalling cost the "
            "same while the shards time-slice one core)"
        ),
    },
)

#: the aggregation gate (ROADMAP item 3): unlike the wall-clock gates
#: above it compares *simulated* write throughput — a deterministic,
#: host-independent number — so it carries no ``requires`` and is never
#: advisory.  Filled in by :func:`run_harness` from
#: :func:`repro.bench.kv_bench.aggregation_ablation` whenever the
#: ``kvservice`` workload is selected; marked skipped otherwise.
KV_GATE = {
    "name": "kv_aggregation_vs_rpc",
    "workload": "kvservice",
    "metric": "simulated updates/s aggregated(batch=64)/per-op RPC",
    "target_speedup": 4.0,
    "rationale": (
        "runtime-level destination batching (the Fig. 9 HipMer motif "
        "promoted into repro.upcxx.aggregator) must hold a >=4x simulated "
        "write-throughput win over the per-op RPC baseline on the "
        "write-heavy kvservice workload; the measurement is simulated "
        "time, identical on every host and backend, so this gate is "
        "always non-advisory"
    ),
}

#: the crash-availability gate: with replication factor 2 and one rank
#: fail-stopping mid-run, the KV service must complete the run, serve
#: >=99% of the surviving front ends' requests, lose no covered write,
#: and restore the replication factor online.  Simulated-time A/B like
#: the aggregation gate, so it is never advisory.
CRASH_GATE = {
    "name": "kv_crash_availability",
    "workload": "kvservice",
    "metric": (
        "fraction of surviving front ends' accepted requests served under "
        "a survivable mid-run rank crash (rf=2, single crash)"
    ),
    "min_availability": 0.99,
    "rationale": (
        "the replication layer (repro.upcxx.replication) exists so a rank "
        "crash costs neither the run nor the data: failover reads retarget "
        "to a surviving replica, writes complete on the first surviving "
        "owner's ack, and background re-replication restores the factor; "
        "availability and recovery time are deterministic simulated-time "
        "measurements, identical on every host and backend, so this gate "
        "is always non-advisory"
    ),
}


# ----------------------------------------------------------------- workloads
def _fig3a_latency(scale: str, backend: str) -> Tuple[object, dict]:
    """Fig. 3a blocking-put latency series (2 ranks, size sweep)."""
    import numpy as np

    import repro.upcxx as upcxx
    from repro.bench.microbench import FIG3_SIZES

    sizes = FIG3_SIZES[:6] if scale == "tiny" else FIG3_SIZES
    iters = 5 if scale == "tiny" else 20

    def body():
        me = upcxx.rank_me()
        landing = upcxx.new_array(np.uint8, max(sizes))
        dest = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        out = []
        if me == 0:
            for size in sizes:
                payload = bytes(size)
                upcxx.rput(payload, dest).wait()  # warm-up
                t0 = upcxx.sim_now()
                for _ in range(iters):
                    upcxx.rput(payload, dest).wait()
                out.append((size, (upcxx.sim_now() - t0) / iters))
        upcxx.barrier()
        return tuple(out)

    stats: dict = {}
    res = upcxx.run_spmd(body, 2, platform="haswell", ppn=1, backend=backend, sched_stats=stats)
    return tuple(res), stats


#: rank counts for the Fig. 4a gate workload by scale; ``xl`` is the
#: 1024-rank configuration the sharded-backend speedup is quoted at
_DHT_RANKS = {"tiny": 32, "full": 256, "xl": 1024}


def _fig4a_dht(scale: str, backend: str, ppn: int = 0) -> Tuple[object, dict]:
    """Fig. 4a DHT blocking-insert weak scaling point (the gate workload)."""
    import repro.upcxx as upcxx
    from repro.apps.dht import DhtRmaLz
    from repro.bench.platforms import PLATFORMS
    from repro.util.units import MiB

    n_ranks = _DHT_RANKS[scale]
    value_size = 4096
    n_inserts = 8 if scale == "tiny" else 16

    def body():
        dht = DhtRmaLz()
        rng = upcxx.runtime_here().rng.spawn("dht-bench")
        payload = bytes(value_size)
        upcxx.barrier()
        t0 = upcxx.sim_now()
        for _ in range(n_inserts):
            dht.insert(rng.key64(), payload).wait()
        upcxx.barrier()
        return upcxx.sim_now() - t0

    stats: dict = {}
    elapsed = upcxx.run_spmd(
        body,
        n_ranks,
        platform="haswell",
        ppn=ppn or PLATFORMS["haswell"].ppn_dht,
        segment_size=max(4 * MiB, 4 * n_inserts * value_size),
        backend=backend,
        sched_stats=stats,
    )
    return tuple(elapsed), stats


#: workload the ``--shard-sweep`` scaling curve runs (a respread of the
#: gate workload; see :func:`_fig4a_dht_sweep`)
SWEEP_WORKLOAD = "fig4a_dht_sweep"


def _fig4a_dht_sweep(scale: str, backend: str) -> Tuple[object, dict]:
    """The Fig. 4a DHT workload respread over >=8 nodes for the shard sweep.

    The gate workload packs ranks at the platform's production ppn, which
    at tiny scale fills a *single* node — and the shard planner (correctly)
    never splits one node's ranks across shards, so every sweep point
    would collapse to shards=1.  This variant lowers ppn until the same
    rank count spans eight nodes, giving the planner room for the full
    {1, 2, 4, 8} curve at any scale.  Simulated timings differ from the
    gate workload (more traffic crosses node boundaries); the sweep only
    compares points against its own coroutine reference, never against
    the gate numbers.
    """
    return _fig4a_dht(scale, backend, ppn=max(1, _DHT_RANKS[scale] // 8))


#: cached extend-add plans per scale (plan building is pure CPU setup
#: shared by all backends; keep it out of the timed region)
_EADD_PLANS: dict = {}


def _fig8_eadd(scale: str, backend: str) -> Tuple[object, dict]:
    """Fig. 8 extend-add sweep, UPC++ RPC variant."""
    import repro.upcxx as upcxx
    from repro.apps.sparse.extend_add import build_eadd_plan, upcxx_eadd_run
    from repro.bench.platforms import PLATFORMS

    n_procs = 4 if scale == "tiny" else 16
    if scale not in _EADD_PLANS:
        grid = (8, 8, 6) if scale == "tiny" else (16, 16, 12)
        _EADD_PLANS[scale] = build_eadd_plan(*grid, n_procs=n_procs, leaf_size=48)
    plan = _EADD_PLANS[scale]
    stats: dict = {}
    out = upcxx.run_spmd(
        lambda: upcxx_eadd_run(plan),
        n_procs,
        platform="haswell",
        ppn=PLATFORMS["haswell"].ppn_eadd,
        backend=backend,
        sched_stats=stats,
    )
    return tuple(out), stats


def _kvservice(scale: str, backend: str) -> Tuple[object, dict]:
    """Served KV workload over the runtime aggregation layer.

    Open-loop Poisson/Zipf traffic through an aggregated, hot-key-cached
    store (docs/kvservice.md).  The per-rank result records — request
    counts, read checksums, latency histograms, cache and credit
    counters — are fully deterministic, so the harness's bit-identity
    assertion covers the entire aggregation subsystem.
    """
    from repro.apps.kvservice import default_config
    from repro.bench.kv_bench import run_kv

    results, stats = run_kv(default_config(scale), backend)
    return tuple(results), stats


WORKLOADS: Dict[str, Callable[[str, str], Tuple[object, dict]]] = {
    "fig3a_latency": _fig3a_latency,
    "fig4a_dht": _fig4a_dht,
    "fig4a_dht_sweep": _fig4a_dht_sweep,
    "fig8_eadd": _fig8_eadd,
    "kvservice": _kvservice,
}


# ---------------------------------------------------------------- measuring
def _peak_rss_kb() -> int:
    """Peak RSS of this process in KiB (Linux ru_maxrss unit)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _peak_rss_children_kb() -> int:
    """Peak RSS over reaped children in KiB (the sharded backend's
    workers live here; 0 until a forked worker has exited)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def measure(
    name: str,
    scale: str,
    backend: str,
    repeat: int = 2,
) -> Tuple[object, dict]:
    """Run one workload on one backend; best-of-``repeat`` wall clock.

    Returns (simulated result, measurement record).  Best-of-N damps
    scheduler noise on shared machines; events fired and switches are
    invariant across repeats (the simulation is deterministic).
    """
    fn = WORKLOADS[name]
    fn(scale, backend)  # untimed warm-up: imports, caches, allocator pools
    best_wall = float("inf")
    result = None
    stats: dict = {}
    for _ in range(max(1, repeat)):
        gc.collect()  # don't bill one run for another's garbage
        t0 = time.perf_counter()
        result, stats = fn(scale, backend)
        wall = time.perf_counter() - t0
        best_wall = min(best_wall, wall)
    events = stats.get("events_fired", 0)
    switches = stats.get("switches", 0)
    record = {
        "wall_s": round(best_wall, 4),
        "events_fired": events,
        "events_per_s": round(events / best_wall, 1) if events else None,
        "switches": switches,
        "switches_per_s": round(switches / best_wall, 1) if switches else None,
        "peak_rss_kb": _peak_rss_kb(),
        "peak_rss_children_kb": _peak_rss_children_kb(),
    }
    if "n_shards" in stats:
        record["n_shards"] = stats["n_shards"]
    # CMB window-protocol counters (sharded backend only): these are what
    # the scaling sweep and the report's batching diagnostics read
    for key in (
        "windows",
        "quiet_windows",
        "window_stall_s",
        "horizon_wait_s",
        "envelopes_exchanged",
        "env_frames",
        "sentinel_frames",
        "pipe_bytes",
        "lookahead_mode",
        "lookahead_mult_peak",
    ):
        if key in stats:
            v = stats[key]
            record[key] = round(v, 4) if isinstance(v, float) else v
    # per-worker window/stall counters: CI uploads these alongside the
    # aggregate so a load imbalance between shards is visible from the
    # artifact alone
    if "per_shard" in stats:
        record["per_shard"] = [
            {k: (round(v, 4) if isinstance(v, float) else v) for k, v in s.items()}
            for s in stats["per_shard"]
        ]
    return result, record


#: shard counts the ``--shard-sweep`` scaling curve walks (ROADMAP item 2)
SWEEP_SHARD_COUNTS = (1, 2, 4, 8)


def shard_sweep(
    scale: str = "tiny",
    repeat: int = 1,
    workload: str = SWEEP_WORKLOAD,
    shard_counts: Sequence[int] = SWEEP_SHARD_COUNTS,
) -> dict:
    """Run the sweep workload at each shard count and record the scaling
    curve (events/s, windows, env-exchange stall) plus the wall-clock
    speedup against the single-core coroutine reference.  Simulated
    results must stay bit-identical at every point — the sweep asserts
    it, so a lookahead or batching bug cannot masquerade as a speedup.
    """
    ref_result, ref = measure(workload, scale, "coroutines", repeat=repeat)
    points = []
    for n in shard_counts:
        prev = os.environ.get(SHARDS_ENV)
        os.environ[SHARDS_ENV] = str(n)
        try:
            result, rec = measure(workload, scale, "sharded", repeat=repeat)
        finally:
            if prev is None:
                os.environ.pop(SHARDS_ENV, None)
            else:
                os.environ[SHARDS_ENV] = prev
        if result != ref_result:
            raise AssertionError(
                f"{workload}: simulated results at {n} shard(s) diverge from "
                "the coroutine reference — fix determinism first"
            )
        point = {
            "shards": rec.get("n_shards", n),
            "wall_s": rec["wall_s"],
            "events_per_s": rec["events_per_s"],
            "windows": rec.get("windows"),
            "quiet_windows": rec.get("quiet_windows"),
            "env_stall_s": rec.get("window_stall_s"),
            "horizon_wait_s": rec.get("horizon_wait_s"),
            "env_frames": rec.get("env_frames"),
            "sentinel_frames": rec.get("sentinel_frames"),
            "speedup_vs_coroutines": round(ref["wall_s"] / rec["wall_s"], 3),
        }
        points.append(point)
        print(
            f"[perf] sweep {workload} shards={point['shards']}: "
            f"{rec['wall_s']:.2f}s wall, {point['speedup_vs_coroutines']}x vs "
            f"coroutines, {point['windows']} windows, "
            f"{point['env_stall_s']}s env stall",
            flush=True,
        )
    return {
        "workload": workload,
        "scale": scale,
        "reference": {
            "backend": "coroutines",
            "wall_s": ref["wall_s"],
            "events_per_s": ref["events_per_s"],
        },
        "curve": points,
    }


def telemetry_digest(matrix: Sequence[str] = BACKENDS) -> dict:
    """Cross-backend telemetry rollup digest for ``BENCH_perf.json``.

    Runs a small fixed mixed rput/RPC workload once per backend with the
    flight recorder + windowed rollups enabled, asserts the exported
    telemetry is *byte-identical* everywhere (the same bar the simulated
    results are held to), and folds the final cumulative window into a
    compact totals record so the CI artifact carries a telemetry
    provenance line next to the perf numbers.
    """
    import hashlib

    import repro.upcxx as upcxx
    from repro.util.telemetry import Telemetry

    n_ranks, n_puts, n_rpcs = 8, 24, 8

    def body():
        import numpy as np

        me, n = upcxx.rank_me(), upcxx.rank_n()
        landing = upcxx.new_array(np.uint8, 512)
        dests = [upcxx.broadcast(landing, root=r).wait() for r in range(n)]
        upcxx.barrier()
        payload = bytes(512)
        futs = [upcxx.rput(payload, dests[(me + 1 + i) % n])
                for i in range(n_puts)]
        acc = 0
        for i in range(n_rpcs):
            acc += upcxx.rpc((me + i) % n, lambda x: x + 1, i).wait()
        for f in futs:
            f.wait()
        upcxx.barrier()
        return acc

    texts: Dict[str, str] = {}
    tel_last = None
    for backend in matrix:
        tel = Telemetry()
        res = upcxx.run_spmd(body, n_ranks, platform="haswell", ppn=4,
                             seed=11, backend=backend, telemetry=tel)
        assert len(res) == n_ranks
        texts[backend] = tel.dumps()
        if tel.ranks:  # sharded merges into the parent's sink too
            tel_last = tel
    if len(set(texts.values())) > 1:
        raise AssertionError(
            "telemetry rollups diverged across backends "
            f"{sorted(texts)} — fix determinism first"
        )
    totals = {"ops": 0, "bytes": 0, "executed": 0, "am_polls": 0,
              "retransmits": 0, "credit_stall_s": 0.0, "cache_hits": 0,
              "max_gap_s": 0.0, "windows": 0}
    for rt in tel_last.ranks.values():
        if not rt.windows:
            continue
        last = rt.windows[-1]
        totals["ops"] += sum(last["ops"].values())
        totals["bytes"] += sum(last["bytes"].values())
        totals["executed"] += last["executed"]
        totals["am_polls"] += last["ams"]
        totals["retransmits"] += last["rel"]["retx"]
        totals["credit_stall_s"] += last["agg"]["credit_stall_s"]
        totals["cache_hits"] += last["agg"]["cache_hits"]
        totals["max_gap_s"] = max(totals["max_gap_s"],
                                  max(w["max_gap_s"] for w in rt.windows))
        totals["windows"] += len(rt.windows)
    totals["credit_stall_s"] = round(totals["credit_stall_s"], 9)
    totals["max_gap_s"] = round(totals["max_gap_s"], 9)
    return {
        "workload": f"mixed rput/rpc {n_ranks} ranks",
        "backends": list(matrix),
        "identical": True,
        "fingerprint": hashlib.sha256(
            texts[matrix[0]].encode()).hexdigest()[:16],
        "n_ranks": len(tel_last.ranks),
        "totals": totals,
    }


def _gate_entry(gate: dict, workloads: dict, cpus: int, shards: int) -> dict:
    """Fill one :data:`GATES` template with measured numbers and verdict."""
    entry = dict(gate)
    wl = workloads.get(gate["workload"], {})
    fast_name, slow_name = gate["name"].split("_vs_")
    fast, slow = wl.get(fast_name), wl.get(slow_name)
    if not fast or not slow:
        entry.update({"measured_speedup": None, "passed": None, "skipped": True})
        return entry
    measured = slow["wall_s"] / fast["wall_s"]
    entry["measured_speedup"] = round(measured, 3)
    entry["passed"] = bool(measured >= gate["target_speedup"])
    req = gate.get("requires")
    if req:
        met = cpus >= req.get("min_cpus", 1) and shards >= req.get("min_shards", 1)
        entry["requirements_met"] = met
        entry["advisory"] = not met
        if not met and not entry["passed"]:
            # Render only the requirements this gate actually carries: a
            # cpu-only gate must not claim it "assumes >=1 shards".
            have = [f"runner has {cpus} cpu(s)"]
            needs = []
            if "min_cpus" in req:
                needs.append(f">={req['min_cpus']} cpus")
            if "min_shards" in req:
                have.append(f"ran {shards} shard(s)")
                needs.append(f">={req['min_shards']} shards")
            entry["explanation"] = (
                f"{' and '.join(have)}; the target assumes "
                f"{' and '.join(needs)}, so the measured number reflects "
                "scheduling overhead without parallel hardware underneath it"
            )
    return entry


def run_harness(
    scale: str = "tiny",
    workloads: Optional[List[str]] = None,
    repeat: int = 2,
    out_path: str = "BENCH_perf.json",
    backends: Optional[Sequence[str]] = None,
    shards: Optional[int] = None,
    profile: Optional[bool] = None,
    sweep: bool = False,
    kv_sweep: bool = False,
) -> dict:
    """Run every workload on every backend and write ``BENCH_perf.json``.

    ``backends`` restricts the matrix (default: all of :data:`BACKENDS`);
    the first listed backend is the reference every other backend's
    simulated results must match bit-for-bit.  ``shards`` pins the
    sharded backend's worker count (default: ``$REPRO_SIM_SHARDS`` or
    :data:`DEFAULT_SHARDS`).  ``profile`` adds a per-phase hot-path
    breakdown of the gate workload (scheduler vs conduit vs upcxx API vs
    instrumentation, from an extra untimed cProfile pass) to the report
    provenance; it defaults to ``$REPRO_PROFILE``.
    """
    names = workloads or list(WORKLOADS)
    matrix = tuple(backends) if backends else BACKENDS
    for b in matrix:
        if b not in BACKENDS:
            raise ValueError(f"unknown backend {b!r} (choose from {BACKENDS})")
    if shards is None:
        shards = int(os.environ.get(SHARDS_ENV) or DEFAULT_SHARDS)
    report: dict = {
        "schema": "repro-perf/3",
        "scale": scale,
        "python": sys.version.split()[0],
        "machine": _platform.machine(),
        "cpus": os.cpu_count(),
        "backends": list(matrix),
        "shards": shards if "sharded" in matrix else None,
        "workloads": {},
    }
    ref = matrix[0]
    for name in names:
        entry: dict = {}
        results = {}
        for backend in matrix:
            if backend == "sharded":
                prev = os.environ.get(SHARDS_ENV)
                os.environ[SHARDS_ENV] = str(shards)
                try:
                    result, record = measure(name, scale, backend, repeat=repeat)
                finally:
                    if prev is None:
                        os.environ.pop(SHARDS_ENV, None)
                    else:
                        os.environ[SHARDS_ENV] = prev
            else:
                result, record = measure(name, scale, backend, repeat=repeat)
            entry[backend] = record
            results[backend] = result
            print(
                f"[perf] {name:>14s} {backend:>10s}: {record['wall_s']:.2f}s wall, "
                f"{record['events_fired']} events"
                + (f" ({record['events_per_s']:.0f}/s)" if record["events_per_s"] else ""),
                flush=True,
            )
        for backend in matrix[1:]:
            if results[backend] != results[ref]:
                raise AssertionError(
                    f"{name}: simulated results differ between {ref} and "
                    f"{backend} — perf numbers are meaningless; fix "
                    "determinism first"
                )
        entry["results_identical"] = True
        if "coroutines" in entry and "sharded" in entry:
            entry["sharded_speedup_wall"] = round(
                entry["coroutines"]["wall_s"] / entry["sharded"]["wall_s"], 3
            )
        report["workloads"][name] = entry

    report["gates"] = [
        _gate_entry(g, report["workloads"], report["cpus"] or 1, shards) for g in GATES
    ]

    # aggregation gate: simulated-time A/B, so it bypasses _gate_entry's
    # backend-pair plumbing and is never downgraded to advisory
    kv_gate = dict(KV_GATE)
    if "kvservice" in names:
        from repro.bench.kv_bench import aggregation_ablation

        ab = aggregation_ablation(scale, "coroutines")
        kv_gate["measured_speedup"] = ab["speedup"]
        kv_gate["passed"] = bool(ab["speedup"] >= kv_gate["target_speedup"])
        kv_gate["ablation"] = ab
        print(
            f"[perf] kv gate: aggregated {ab['aggregated']['updates_per_s']:.0f} "
            f"vs per-op {ab['per_op_rpc']['updates_per_s']:.0f} updates/s "
            f"-> {ab['speedup']}x (target {kv_gate['target_speedup']}x)",
            flush=True,
        )
    else:
        kv_gate.update({"measured_speedup": None, "passed": None, "skipped": True})
    report["gates"].append(kv_gate)

    # crash-availability gate + availability/recovery curve: simulated-time
    # chaos measurement, never advisory (same discipline as the kv gate)
    crash_gate = dict(CRASH_GATE)
    if "kvservice" in names:
        from repro.bench.kv_bench import crash_availability_sweep

        curve = crash_availability_sweep(scale, "coroutines")
        rf2 = next(p for p in curve["points"] if p["replication"] == 2)
        crash_gate["measured_availability"] = rf2["availability"]
        crash_gate["writes_lost"] = rf2["writes_lost"]
        crash_gate["recovery_s"] = rf2["recovery_s"]
        crash_gate["factor_restored"] = rf2["factor_restored"]
        crash_gate["passed"] = bool(
            rf2["availability"] >= crash_gate["min_availability"]
            and rf2["writes_lost"] == 0
            and rf2["factor_restored"]
        )
        report["kv_availability"] = curve
        print(
            f"[perf] kv crash gate: availability {rf2['availability']:.4f} "
            f"(target >= {crash_gate['min_availability']}), "
            f"lost writes {rf2['writes_lost']}, recovery "
            f"{rf2['recovery_s'] * 1e6:.0f}us, restored {rf2['factor_restored']}",
            flush=True,
        )
    else:
        crash_gate.update(
            {"measured_availability": None, "passed": None, "skipped": True}
        )
    report["gates"].append(crash_gate)

    if sweep:
        report["scaling"] = shard_sweep(scale=scale, repeat=max(1, repeat - 1))

    if kv_sweep:
        from repro.bench.kv_bench import offered_load_sweep

        report["kv_capacity"] = offered_load_sweep(scale, "coroutines")

    # causal-span attribution per backend (Fig. 3a workload): where the
    # simulated round-trip time goes, plus a cross-backend fingerprint
    # check — a divergence here is a determinism bug, same as above
    from repro.tools.report import analyze_workload

    span_section: dict = {}
    for backend in matrix:
        rep = analyze_workload(
            "fig3a", backend, shards if backend == "sharded" else None
        )
        span_section[backend] = {
            "fingerprint": rep["fingerprint"],
            "n_spans": rep["n_spans"],
            "attribution_s": rep["attribution_s"],
        }
    fps = {b: s["fingerprint"] for b, s in span_section.items()}
    if len(set(fps.values())) > 1:
        raise AssertionError(
            f"span fingerprints diverged across backends: {fps} — "
            "fix determinism first"
        )
    report["span_attribution"] = span_section

    # telemetry rollup digest: same bit-identity bar as the results and
    # span fingerprints, plus a compact totals record for the artifact
    if "sharded" in matrix:
        prev = os.environ.get(SHARDS_ENV)
        os.environ[SHARDS_ENV] = str(shards)
        try:
            report["telemetry"] = telemetry_digest(matrix)
        finally:
            if prev is None:
                os.environ.pop(SHARDS_ENV, None)
            else:
                os.environ[SHARDS_ENV] = prev
    else:
        report["telemetry"] = telemetry_digest(matrix)
    tl = report["telemetry"]
    print(
        f"[perf] telemetry digest: {tl['n_ranks']} ranks, "
        f"{tl['totals']['windows']} windows, fingerprint {tl['fingerprint']} "
        f"(identical across {len(tl['backends'])} backends)",
        flush=True,
    )

    # per-phase hot-path breakdown (REPRO_PROFILE=1 or profile=True): an
    # extra *untimed* cProfile pass of the gate workload on the reference
    # backend, classified by layer, so a future gate regression is
    # attributable from the CI artifact alone
    from repro.util.profile import profile_phase_breakdown, profiling_enabled

    if profiling_enabled() if profile is None else profile:
        gate_fn = WORKLOADS[GATE_WORKLOAD]
        breakdown = profile_phase_breakdown(lambda: gate_fn(scale, ref))
        breakdown["workload"] = GATE_WORKLOAD
        breakdown["backend"] = ref
        report["profile_phases"] = breakdown
        fr = breakdown["fractions"]
        print(
            "[perf] hot-path phases ({}/{}): ".format(GATE_WORKLOAD, ref)
            + "  ".join(f"{k}={fr[k]:.1%}" for k in sorted(fr, key=fr.get, reverse=True)),
            flush=True,
        )

    with open(out_path, "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"[perf] wrote {out_path}")
    return report


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=("tiny", "full", "xl"), default="tiny")
    ap.add_argument("--workloads", nargs="*", choices=list(WORKLOADS), default=None)
    ap.add_argument("--repeat", type=int, default=2)
    ap.add_argument("--out", default="BENCH_perf.json")
    ap.add_argument(
        "--backends",
        nargs="*",
        choices=BACKENDS,
        default=None,
        help="restrict the backend matrix; first entry is the reference",
    )
    ap.add_argument(
        "--shards",
        type=int,
        default=None,
        help=f"sharded-backend worker count (default: ${SHARDS_ENV} or {DEFAULT_SHARDS})",
    )
    ap.add_argument(
        "--profile",
        action="store_true",
        default=None,
        help="embed a per-phase hot-path breakdown of the gate workload "
        "in the report (default: $REPRO_PROFILE)",
    )
    ap.add_argument(
        "--shard-sweep",
        action="store_true",
        help=f"also run {SWEEP_WORKLOAD} at shards in {SWEEP_SHARD_COUNTS} "
        "and record the scaling curve under the report's 'scaling' key",
    )
    ap.add_argument(
        "--kv-sweep",
        action="store_true",
        help="also run the kvservice offered-load sweep (saturation knee, "
        "capacity per rank, tail latency) under the report's 'kv_capacity' key",
    )
    ap.add_argument(
        "--strict-gates",
        action="store_true",
        help="exit non-zero when a non-advisory gate fails (its cpu/shard "
        "requirements are met and the measured speedup misses the target); "
        "advisory entries stay informational",
    )
    args = ap.parse_args(argv)
    report = run_harness(
        args.scale,
        args.workloads,
        args.repeat,
        args.out,
        args.backends,
        args.shards,
        profile=args.profile,
        sweep=args.shard_sweep,
        kv_sweep=args.kv_sweep,
    )
    if args.strict_gates:
        failed = [
            g
            for g in report["gates"]
            if not g.get("skipped") and not g.get("advisory") and g["passed"] is False
        ]
        for g in failed:
            if "target_speedup" in g:
                detail = (
                    f"measured {g.get('measured_speedup')}x < target "
                    f"{g['target_speedup']}x"
                )
            else:
                detail = (
                    f"availability {g.get('measured_availability')} < "
                    f"{g.get('min_availability')} (lost {g.get('writes_lost')}, "
                    f"restored {g.get('factor_restored')})"
                )
            print(f"[perf] GATE FAIL {g['name']}: {detail}",
                  file=sys.stderr, flush=True)
        if failed:
            return 1
        print("[perf] strict gates: every non-advisory gate passed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
