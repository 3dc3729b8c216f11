"""KV-service benchmarking: aggregation ablation + offered-load sweep.

Two measurements, both in *simulated* time (deterministic, so they are
host-independent and safe to hard-gate):

- :func:`aggregation_ablation` — the Fig. 9 motif reproduced through the
  runtime aggregation layer: an identical write-heavy workload served
  once with destination batching (batch >= 64) and once as per-op RPC
  (batch 1 through the same code path), reporting the simulated
  updates/s ratio, which must stay at or above
  :data:`AGGREGATION_GATE_SPEEDUP` (a tier-1 test and CI's ``kv-smoke``
  hold it there: the standalone ablation run exits 1 below it).
- :func:`offered_load_sweep` — the saturation-knee procedure
  (docs/kvservice.md): walk offered load up a multiplier ladder at a
  fixed service configuration, recording achieved throughput and
  p50/p95/p99/p999 request latency (cross-rank merged
  :class:`DwellHistogram`) per point.  The *knee* is the first point
  whose achieved throughput falls below ``KNEE_EFFICIENCY`` of offered;
  capacity is the best achieved throughput on the curve.

Standalone usage::

    PYTHONPATH=src python -m repro.bench.kv_bench --scale tiny          # exit 1 below the gate
    PYTHONPATH=src python -m repro.bench.kv_bench --scale tiny --sweep
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

import repro.upcxx as upcxx
from repro.apps.kvservice import default_config, kv_rank_body
from repro.util.metrics import DwellHistogram
from repro.util.telemetry import Telemetry

#: offered-load multipliers the sweep walks (relative to the scale's base
#: per-rank rate); spans well below and well past the saturation knee
SWEEP_MULTIPLIERS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)

#: achieved/offered ratio below which a sweep point counts as saturated
KNEE_EFFICIENCY = 0.9

#: the ``kv_aggregation_vs_rpc`` gate: destination batching must keep at
#: least this simulated write-throughput win over per-op RPC in
#: :func:`aggregation_ablation` (11.1x measured at tiny scale)
AGGREGATION_GATE_SPEEDUP = 4.0

#: write-latency drain wait is part of serving time; seed is fixed so the
#: measurement is one reproducible simulation, not a statistical sample
KV_SEED = 7

#: canonical single-crash chaos point: one rank fail-stops mid-run (the
#: tiny scale serves ~1.3 ms, so 0.35 ms is comfortably mid-stream)
CRASH_RANK = 3
CRASH_T_S = 3.5e-4

#: replication factors the crash-availability sweep walks
CRASH_FACTORS = (1, 2, 3)


def run_kv(cfg: dict, seed: int = KV_SEED, faults=None, telemetry=None) -> Tuple[list, dict]:
    """One kvservice run; returns (per-rank records, sched stats)."""
    stats: dict = {}
    results = upcxx.run_spmd(
        lambda: kv_rank_body(cfg),
        cfg["ranks"],
        platform="haswell",
        ppn=cfg["ppn"],
        seed=seed,
        sched_stats=stats,
        telemetry=telemetry,
        faults=faults,
    )
    return list(results), stats


def _merge_latencies(results: Sequence[dict], field: str) -> DwellHistogram:
    h = DwellHistogram()
    for r in results:
        h.merge(DwellHistogram.from_dict(r[field]))
    return h


#: per-rank record counters a sweep point sums over the surviving ranks
_POINT_SUMS = (
    "cache_hits", "cache_misses", "reads_coalesced",
    "updates_sent", "updates_combined", "invals_sent", "sharers_registered",
    "credit_stalls", "batches_sent",
    "requests_issued", "requests_served", "requests_shed", "writes_lost",
    "failover_reads", "rereplicated_keys", "synced_keys",
)


def summarize_point(cfg: dict, results: Sequence[dict]) -> dict:
    """Fold per-rank records into one sweep point (JSON-ready).

    ``results`` may contain ``None`` slots: under a survivable crash plan
    a dead rank returns no record, and the point is computed over the
    surviving front ends (availability = fraction of *their* accepted
    requests that were served).
    """
    results = [r for r in results if r is not None]
    sums = {k: sum(r[k] for r in results) for k in _POINT_SUMS}
    total = sum(r["reads"] + r["writes"] for r in results)
    t_serve = max(r["t_serve_s"] for r in results)
    read_lat = _merge_latencies(results, "read_lat")
    write_lat = _merge_latencies(results, "write_lat")
    lat = DwellHistogram().merge(read_lat).merge(write_lat)
    offered = cfg["ranks"] * cfg["rate"]
    achieved = total / t_serve if t_serve > 0 else 0.0
    # what each rank did as a shard owner: the hot shard paces a skewed run
    shard_load = [r["applied_updates"] + r["reads_served"] for r in results]
    return {
        **sums,
        "offered_rps": offered,
        "achieved_rps": round(achieved, 1),
        "utilization": round(achieved / offered, 4) if offered else 0.0,
        "n_requests": total,
        "t_serve_s": t_serve,
        "p50_s": lat.percentile(50),
        "p95_s": lat.percentile(95),
        "p99_s": lat.percentile(99),
        "p999_s": lat.percentile(99.9),
        # the split the merged percentiles hide: a write completes at its
        # batch's ack, so its median shows what the batch waited for
        "read_p50_s": read_lat.percentile(50),
        "read_p99_s": read_lat.percentile(99),
        "write_p50_s": write_lat.percentile(50),
        "write_p99_s": write_lat.percentile(99),
        "max_dwell_s": cfg.get("max_dwell") if cfg.get("aggregate", True) else None,
        # misses per read-through message: above 1 once reads batch
        "reads_per_batch": round(
            _ratio(sums["cache_misses"], sum(r["read_batches"] for r in results)), 4
        ),
        "shard_load_skew": round(
            _ratio(max(shard_load), sum(shard_load) / len(shard_load), empty=1.0), 4
        ),
        "updates_per_batch": round(_ratio(sums["updates_sent"], sums["batches_sent"]), 4),
        # -- availability / robustness (zero-valued on calm runs) ----------
        "shed_fraction": _ratio(
            sums["requests_shed"], sums["requests_issued"] + sums["requests_shed"]
        ),
        "availability": _ratio(
            sums["requests_served"], sums["requests_issued"], empty=1.0
        ),
        "recovery_s": max(r["recovery_s"] for r in results),
        "factor_restored": all(r["factor_restored"] for r in results),
    }


def _ratio(num: float, den: float, empty: float = 0.0) -> float:
    return num / den if den else empty


# ------------------------------------------------------------------ ablation
def aggregation_ablation(scale: str = "tiny") -> dict:
    """Write-heavy A/B: aggregated (batch >= 64) vs per-op RPC baseline.

    The offered rate is set far above capacity so both variants run
    injection-bound (arrival pacing never idles the loop) and the ratio
    isolates the batching win, as in the Fig. 9 ablation.
    """
    cfg = default_config(scale)
    cfg.update({
        "read_fraction": 0.0,   # pure update stream (the HipMer shape)
        "burst_prob": 0.0,
        "rate": 1e9,            # saturating: pacing never sleeps
        "cache_capacity": 0,    # isolate write-path batching
    })
    agg_cfg = dict(cfg, aggregate=True)
    rpc_cfg = dict(cfg, aggregate=False)
    out = {}
    for name, c in (("aggregated", agg_cfg), ("per_op_rpc", rpc_cfg)):
        results, _ = run_kv(c)
        total = sum(r["writes"] for r in results)
        t_serve = max(r["t_serve_s"] for r in results)
        out[name] = {
            "updates_per_s": round(total / t_serve, 1),
            "batches_sent": sum(r["batches_sent"] for r in results),
            "n_updates": total,
            "batch_size": c["batch_size"] if c["aggregate"] else 1,
        }
    out["speedup"] = round(
        out["aggregated"]["updates_per_s"] / out["per_op_rpc"]["updates_per_s"], 3
    )
    out["scale"] = scale
    out["ranks"] = cfg["ranks"]
    return out


# --------------------------------------------------------------------- sweep
def offered_load_sweep(
    scale: str = "tiny",
    multipliers: Sequence[float] = SWEEP_MULTIPLIERS,
) -> dict:
    """Walk offered load past saturation; record the capacity curve."""
    base = default_config(scale)
    curve: List[dict] = []
    for m in multipliers:
        cfg = dict(base, rate=base["rate"] * m)
        results, _ = run_kv(cfg)
        point = summarize_point(cfg, results)
        point["multiplier"] = m
        curve.append(point)
        print(
            f"[kv] x{m:<4g} offered {point['offered_rps'] / 1e6:.2f}M req/s -> "
            f"achieved {point['achieved_rps'] / 1e6:.2f}M "
            f"(util {point['utilization']:.2f}), "
            f"p50 {point['p50_s'] * 1e6:.1f}us p99 {point['p99_s'] * 1e6:.1f}us "
            f"p999 {point['p999_s'] * 1e6:.1f}us, "
            f"write p50 {point['write_p50_s'] * 1e6:.1f}us",
            flush=True,
        )
    knee = next((p for p in curve if p["utilization"] < KNEE_EFFICIENCY), None)
    capacity = max(p["achieved_rps"] for p in curve)
    return {
        "scale": scale,
        "ranks": base["ranks"],
        "base_rate_rps": base["rate"],
        "knee_efficiency": KNEE_EFFICIENCY,
        "curve": curve,
        "knee": None if knee is None else {
            "offered_rps": knee["offered_rps"],
            "achieved_rps": knee["achieved_rps"],
            "multiplier": knee["multiplier"],
        },
        "capacity_rps": capacity,
        "capacity_per_rank_rps": round(capacity / base["ranks"], 1),
    }


def measure_point(scale: str, multiplier: float) -> dict:
    """One offered-load point (JSON-ready), for ``repro.tools.health --kv``."""
    base = default_config(scale)
    cfg = dict(base, rate=base["rate"] * multiplier)
    results, _ = run_kv(cfg)
    point = summarize_point(cfg, results)
    point["multiplier"] = multiplier
    return point


# --------------------------------------------------------------------- chaos
def crash_spec(rank: int = CRASH_RANK, t: float = CRASH_T_S) -> str:
    """Survivable single-crash fault spec for the chaos measurements."""
    return f"seed={KV_SEED},crash={rank}@{t:g},survive=1"


def measure_crash_point(
    scale: str = "tiny",
    replication: int = 2,
    crash_rank: int = CRASH_RANK,
    crash_t: float = CRASH_T_S,
) -> dict:
    """One survivable-crash run: availability + recovery measurements.

    The service runs the scale's base offered load while ``crash_rank``
    fail-stops at ``crash_t``; the point reports the fraction of the
    surviving front ends' requests that were served, the lost-write
    count, and the detection-to-factor-restored recovery time.  Feeds
    the ``kv_crash_availability`` gate — the availability rules of
    ``repro.tools.health --kv``, applied by a tier-1 test and by CI's
    chaos smoke.
    """
    cfg = dict(default_config(scale), replication=replication)
    tel = Telemetry()
    results, _ = run_kv(cfg, faults=crash_spec(crash_rank, crash_t), telemetry=tel)
    point = summarize_point(cfg, results)
    point.update(
        multiplier=1.0,
        replication=replication,
        crash_rank=crash_rank,
        crash_t_s=crash_t,
        survivors=sum(1 for r in results if r is not None),
        ranks=cfg["ranks"],
        verdict=(tel.blackbox or {}).get("verdict", {}).get("type"),
    )
    return point


def crash_availability_sweep(
    scale: str = "tiny",
    factors: Sequence[int] = CRASH_FACTORS,
) -> dict:
    """Availability/recovery curve across replication factors.

    The rf=1 point documents the exposure (reads of the dead rank's
    shard serve defaults, covered writes are lost); rf>=2 is the
    availability story the replication layer exists for.
    """
    points: List[dict] = []
    for rf in factors:
        p = measure_crash_point(scale, rf)
        points.append(p)
        print(
            f"[kv] rf={rf}: availability {p['availability']:.4f}, "
            f"lost writes {p['writes_lost']}, "
            f"failover reads {p['failover_reads']}, "
            f"rereplicated {p['rereplicated_keys']} keys, "
            f"recovery {p['recovery_s'] * 1e6:.0f}us, "
            f"restored {p['factor_restored']}",
            flush=True,
        )
    return {
        "scale": scale,
        "ranks": default_config(scale)["ranks"],
        "crash": {"rank": CRASH_RANK, "t_s": CRASH_T_S, "spec": crash_spec()},
        "points": points,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--scale", choices=("tiny", "full", "xl"), default="tiny")
    ap.add_argument("--sweep", action="store_true",
                    help="run the offered-load sweep instead of the ablation")
    ap.add_argument("--point", type=float, default=None, metavar="MULT",
                    help="measure one offered-load point at MULT x the base "
                    "rate (feeds repro.tools.health --kv)")
    ap.add_argument("--crash", action="store_true",
                    help="run the crash availability sweep across "
                    "replication factors")
    ap.add_argument("--crash-point", type=int, default=None, metavar="RF",
                    help="one survivable-crash point at replication RF "
                    "(feeds the CI chaos-smoke availability gate)")
    ap.add_argument("--out", default=None, help="write JSON here")
    args = ap.parse_args(argv)
    gate_failed = False
    if args.crash_point is not None:
        doc = measure_crash_point(args.scale, args.crash_point)
        print(
            f"[kv] crash rf={args.crash_point}: "
            f"availability {doc['availability']:.4f}, "
            f"lost {doc['writes_lost']}, recovery "
            f"{doc['recovery_s'] * 1e6:.0f}us, "
            f"restored {doc['factor_restored']}",
            flush=True,
        )
    elif args.crash:
        doc = crash_availability_sweep(args.scale)
    elif args.point is not None:
        doc = measure_point(args.scale, args.point)
        print(
            f"[kv] x{args.point:g}: utilization {doc['utilization']:.3f}, "
            f"p99 {doc['p99_s'] * 1e6:.1f}us p999 {doc['p999_s'] * 1e6:.1f}us, "
            f"write p50 {doc['write_p50_s'] * 1e6:.1f}us",
            flush=True,
        )
    elif args.sweep:
        doc = offered_load_sweep(args.scale)
    else:
        doc = aggregation_ablation(args.scale)
        print(
            f"[kv] aggregation {doc['aggregated']['updates_per_s'] / 1e6:.2f}M vs "
            f"per-op RPC {doc['per_op_rpc']['updates_per_s'] / 1e6:.2f}M updates/s "
            f"-> {doc['speedup']}x",
            flush=True,
        )
        gate_failed = doc["speedup"] < AGGREGATION_GATE_SPEEDUP
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"[kv] wrote {args.out}")
    else:
        print(text)
    if gate_failed:
        print(f"[kv] FAIL kv_aggregation_vs_rpc: {doc['speedup']}x is below the "
              f"{AGGREGATION_GATE_SPEEDUP}x gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
