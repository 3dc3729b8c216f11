"""One workload in one pinned process (spawned by run.py, never imported).

The simulator passes one baton between per-rank OS threads, so a second
core only adds cross-CPU wake latency: the process pins itself to the last
allowed CPU *before* importing ``repro``.  Then: set-up, one untimed
warm-up repetition, and — by ``--mode`` —

``measure``  ``--reps`` timed repetitions, an untimed ``gc.collect()``
             before each, every observer off: the end-to-end metrics;
``trace``    the same, then one more repetition under the benchmark's
             tracer and one under the program's own observers: the
             per-layer metrics ("layers" in the output).

``--mode micro`` runs no workload: it is the per-layer microbenchmark
sheet (micro.py) in the same pinned process discipline.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--mode", choices=("measure", "trace", "micro"), default="measure")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--reps", type=int, default=2, help="timed repetitions")
    ap.add_argument("--t0", type=float, default=None,
                    help="the parent's perf_counter() when it spawned this process")
    ap.add_argument("--no-pin", action="store_true")
    ap.add_argument("--micro-target", type=float, default=0.03)
    ap.add_argument("--micro-samples", type=int, default=3)
    ap.add_argument("--trace-out", default=None, help="write the Chrome trace here")
    return ap.parse_args(argv)


SIM_KEYS = ("ops", "sim_s", "sim_bytes", "sim_bytes_s", "sim_p50_s", "sim_p99_s", "digest")


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = args.t0 if args.t0 is not None else perf_counter()
    allowed = sorted(os.sched_getaffinity(0))
    if not args.no_pin:
        os.sched_setaffinity(0, {allowed[-1]})
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    if args.mode == "micro":
        import micro

        print(json.dumps({"metrics": micro.run_all(args.micro_target, args.micro_samples)}))
        return 0
    from workloads import WORKLOADS, Observers

    wl = WORKLOADS[args.workload](args.seed, args.scale)

    def rep(obs=None) -> dict:
        gc.collect()
        return wl.rep(obs)

    warm = rep()
    setup_s = perf_counter() - t0
    reps = [rep() for _ in range(args.reps)]
    walls = [r["wall_s"] for r in reps]
    out = {
        "workload": wl.name, "seed": args.seed, "ops": warm["ops"],
        "attempted": warm["ops"] * len(reps), "failed": sum(r["failed"] for r in reps),
        # simulated results repeat exactly for a seed; anything else is a bug
        "deterministic": all(r[k] == warm[k] for r in reps for k in SIM_KEYS),
        "sim_digest": warm["digest"],
        "rep_wall_s": walls,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": {
            "sim_ops_per_s": warm["ops"] / warm["sim_s"],
            "sim_MBps": warm["sim_bytes"] / warm["sim_bytes_s"] / 1e6,
            "sim_p50_us": warm["sim_p50_s"] * 1e6,
            "sim_p99_us": warm["sim_p99_s"] * 1e6,
        },
    }
    if args.mode == "measure":
        print(json.dumps(out))
        return 0

    metrics = traced_rep(wl, statistics.median(walls), args.trace_out)
    # host wall of each eadd variant (zero elsewhere), from the plain repetitions
    for name, label in (("upcxx.eadd_rpc_s", "UPC++ RPC"), ("mpisim.alltoallv_s", "MPI Alltoallv"),
                        ("mpisim.p2p_s", "MPI P2P")):
        metrics[name] = statistics.median(
            r["extra"].get("variant_wall_s", {}).get(label, 0.0) for r in reps
        )
    obs = Observers()
    metrics.update(observed_rep(obs, warm, rep(obs), reps))
    out["layers"] = metrics
    print(json.dumps(out))
    return 0


def traced_rep(wl, plain_wall_s: float, trace_out) -> dict:
    """One repetition under the benchmark's own wrappers (tracing.py)."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install(wl.trace_points)
    try:
        gc.collect()
        rec = wl.rep()
    finally:
        tracer.uninstall()
    # a repetition may be several timed windows (eadd: one per variant);
    # the untimed gaps between them belong to no layer
    tiled = tracer.analyse(breaks=[w[1] for w in rec["windows_ns"]])
    if trace_out:
        os.makedirs(os.path.dirname(os.path.abspath(trace_out)), exist_ok=True)
        tracer.write_chrome_trace(trace_out, tiled["spans"])
    kind = tiled["by_kind_s"]
    return {
        "runtime.launch_s": kind["launch"],
        "app.self_s": kind["app"],
        "upcxx.inject_s": kind["inject"],
        "progress.wait_s": kind["wait"],
        "trace.coverage_frac": sum(kind.values()) / rec["wall_s"],
        "trace.overhead_frac": rec["wall_s"] / plain_wall_s - 1.0,
        "trace.spans": len(tiled["spans"]),
    }


def observed_rep(obs, warm: dict, rec: dict, plain_reps) -> dict:
    """Counts and simulated-time attribution from the program's observers."""
    from repro.tools.report import attribution, critical_path

    stats = obs.sched_stats
    # eadd's MPI variants take no observers: its counts cover the UPC++ sweep
    ops = rec["extra"].get("observed_ops", rec["ops"])
    plain = [r["extra"].get("observed_wall_s", r["wall_s"]) for r in plain_reps]
    ranks = obs.metrics.ranks
    records = obs.spans.canonical_records()
    t_end = max(r[1] for r in records)
    attr = attribution(critical_path(records, 0.0, t_end))
    share = {k: v / attr["total"] for k, v in attr.items()}
    extra = warm["extra"]
    return {
        "sim.events_per_op": stats["events_fired"] / ops,
        "sim.switches_per_op": stats["switches"] / ops,
        "sim.us_per_event": statistics.median(plain) / stats["events_fired"] * 1e6,
        "upcxx.ops_injected": sum(sum(rm.op_counts.values()) for rm in ranks),
        "gasnet.nic_injections": sum(rm.nic_injections for rm in ranks),
        "gasnet.am_polls": sum(h.n for rm in ranks for h in rm.inbox_dwell.values()),
        "upcxx.agg.updates_per_batch": extra.get("updates_per_batch", 0.0),
        "upcxx.agg.cache_hit_ratio": extra.get("cache_hit_ratio", 0.0),
        "upcxx.agg.credit_stall_s": extra.get("credit_stall_s", 0.0),
        "upcxx.sim_software_frac": share["software"],
        "upcxx.sim_attentiveness_frac": share["attentiveness"],
        "upcxx.sim_cache_frac": share["cache"],
        "gasnet.sim_wire_frac": share["wire"],
        "gasnet.sim_occupancy_frac": share["occupancy"],
        "gasnet.sim_backpressure_frac": share["backpressure"],
        "app.sim_frac": share["app"],
    }


if __name__ == "__main__":
    sys.exit(main())
