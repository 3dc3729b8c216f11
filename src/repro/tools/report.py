"""Causal span report: critical path + time attribution.

``python -m repro.tools.report`` runs a small instrumented workload with
span tracing on, reconstructs the simulated-time **critical path** from
the causal span DAG (see :mod:`repro.util.spans`), and reports where the
round-trip time goes:

========  ==========================================================
category  meaning
========  ==========================================================
software  injection-side API/defQ overhead + completion execution
backpressure  NIC queueing + aggregator credit-window stalls
occupancy NIC injection occupancy (bytes streaming onto the wire)
wire      propagation latency legs (request, reply, acks)
attentiveness  waiting on a progress engine (inbox + compQ dwell)
retry     reliability-layer retransmissions (fault injection)
cache     hot-key reads served from the aggregation layer's cache
app       application time between operations (gaps on the path)
========  ==========================================================

The walk is exact: spans of one operation tile the simulated timeline at
shared junction values, so the attributed components sum to the analysis
window *by construction* (the ISSUE's 1% acceptance bound holds with
equality).  The report also prints the run's span fingerprint, the
content hash ``tests/golden/fingerprints.json`` pins for its programs.

Formats: ``text`` (human table), ``json`` (machine-readable), ``perfetto``
(Chrome Trace Event JSON via :func:`repro.util.trace_export
.chrome_trace_span_events`).
"""

from __future__ import annotations

import argparse
import json
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from repro.util.spans import PHASES, SpanBuffer, _canon_key

#: display order of attribution categories
CATEGORIES = [
    "software", "backpressure", "occupancy", "wire", "attentiveness", "retry",
    "cache", "recovery", "app",
]

#: a critical-path segment: (t0, t1, category, phase, kind, sid-or-None)
Segment = Tuple[float, float, str, str, str, Optional[tuple]]


# ======================================================================
# Critical-path analysis
# ======================================================================
def critical_path(
    records: Sequence[tuple],
    t_start: float,
    t_end: float,
) -> List[Segment]:
    """Greedy backward walk over the span set: the simulated critical path.

    Starting at ``t_end``, repeatedly charge the segment ``[x, cur]`` to
    the span with the latest end time ``x <= cur`` (and ``t0 < cur``, so
    zero-length spans cannot stall the walk), inserting explicit ``app``
    gap segments where no span ends.  Junction times are *shared float
    values* between adjacent lifecycle phases (the instrumentation reuses
    the exact same floats), so segments tile ``[t_start, t_end]`` exactly
    and the per-category attribution sums to the window with equality.
    """
    if t_end < t_start:
        raise ValueError(f"empty analysis window: [{t_start}, {t_end}]")
    spans = sorted(
        (r for r in records if t_start < r[1] <= t_end),
        key=lambda r: (r[1], r[0], r[2], r[3], r[4]),
    )
    ends = [r[1] for r in spans]
    segments: List[Segment] = []
    cur = t_end
    while cur > t_start:
        i = bisect_right(ends, cur)
        chosen = None
        j = i - 1
        while j >= 0 and chosen is None:
            end_here = spans[j][1]
            k = j
            while k >= 0 and spans[k][1] == end_here:
                r = spans[k]
                if r[0] < cur and (chosen is None or _canon_key(r) > _canon_key(chosen)):
                    chosen = r
                k -= 1
            j = k
        if chosen is None:
            segments.append((t_start, cur, "app", "gap", "", None))
            break
        if chosen[1] < cur:
            segments.append((chosen[1], cur, "app", "gap", "", None))
        seg_start = chosen[0] if chosen[0] > t_start else t_start
        segments.append(
            (seg_start, chosen[1], PHASES.get(chosen[4], "app"), chosen[4], chosen[5], chosen[3])
        )
        cur = seg_start
    segments.reverse()
    return segments


def attribution(segments: Sequence[Segment]) -> Dict[str, float]:
    """Per-category time totals over a segment list (plus ``total``)."""
    out = {c: 0.0 for c in CATEGORIES}
    for t0, t1, cat, _phase, _kind, _sid in segments:
        out[cat] = out.get(cat, 0.0) + (t1 - t0)
    out["total"] = segments[-1][1] - segments[0][0] if segments else 0.0
    return out


# ======================================================================
# Instrumented workloads
# ======================================================================
def _fig3a_body():
    """Fig. 3a inner loop: blocking rputs, rank 0 -> rank 1 (2 nodes).

    Returns rank 0's measurement window ``(t0, t1, iters)``.
    """
    import numpy as np

    import repro.upcxx as upcxx

    size, iters = 512, 10
    me = upcxx.rank_me()
    landing = upcxx.new_array(np.uint8, size)
    dest = upcxx.broadcast(landing, root=1).wait()
    upcxx.barrier()
    window = None
    if me == 0:
        payload = bytes(size)
        upcxx.rput(payload, dest).wait()  # warm-up
        t0 = upcxx.sim_now()
        for _ in range(iters):
            upcxx.rput(payload, dest).wait()
        window = (t0, upcxx.sim_now(), iters)
    upcxx.barrier()
    return window


def _dht_body():
    """DHT-flavored mix: RPC inserts + rget lookups across 8 ranks."""
    import repro.upcxx as upcxx

    me = upcxx.rank_me()
    n = upcxx.rank_n()
    store: dict = {}

    def insert(k, v):
        store[k] = v
        return k

    t0 = upcxx.sim_now()
    futs = [upcxx.rpc((me + i + 1) % n, insert, (me, i), i) for i in range(4)]
    for f in futs:
        f.wait()
    upcxx.barrier()
    return (t0, upcxx.sim_now())


def _kv_body():
    """KV-service mix: aggregated writes + cached reads across 4 ranks.

    Small credit window + hot-key cache so the walk can surface the new
    ``backpressure`` (credit_wait) and ``cache`` (cache_hit) buckets.
    Returns ``(t0, t1, svc.result())`` — the third element carries the
    per-rank latency histograms the report folds into request-level
    p50/p95/p99/p999.
    """
    import repro.upcxx as upcxx
    from repro.apps.kvservice import KvService, TrafficModel

    rt = upcxx.runtime_here()
    svc = KvService(batch_size=8, credits=2, max_dwell=20e-6, cache_capacity=16)
    tm = TrafficModel(
        rt.rng.spawn("kv-report").py,
        rate=500_000.0,
        n_requests=24,
        read_fraction=0.7,
        zipf_s=1.2,
        n_keys=64,
    )
    upcxx.barrier()
    t0 = upcxx.sim_now()
    for dt, op, key, val in tm.requests():
        if op == "get":
            svc.get(key, t0 + dt)
        else:
            svc.put(key, val, t0 + dt)
        svc.poll()
    svc.drain()
    return (t0, upcxx.sim_now(), svc.result())


#: workload name -> (body, ranks, ppn)
WORKLOADS = {
    "fig3a": (_fig3a_body, 2, 1),
    "dht": (_dht_body, 8, 4),
    "kv": (_kv_body, 4, 2),
}


def analyze_workload(name: str, faults=None) -> dict:
    """Run one workload with span tracing on and build its diagnostics.

    Returns a JSON-ready dict: span fingerprint, critical-path segments
    over the workload's measurement window, per-category attribution, and
    scheduler diagnostics (reliability frame counters when fault
    injection is on).
    """
    import repro.upcxx as upcxx

    body, ranks, ppn = WORKLOADS[name]
    spans = SpanBuffer()
    sched_stats: dict = {}
    results = upcxx.run_spmd(
        body, ranks, ppn=ppn, spans=spans, sched_stats=sched_stats, faults=faults
    )
    window = next((r for r in results if r is not None), None)
    if window is None:
        raise RuntimeError(f"workload {name!r} returned no measurement window")
    t0, t1 = window[0], window[1]
    records = spans.canonical_records()
    segments = critical_path(records, t0, t1)
    attr = attribution(segments)
    diag = {
        key: sched_stats[key]
        for key in ("switches", "events_fired", "frames_dropped",
                    "frames_duplicated", "frames_retransmitted", "acks")
    }
    kv_latency = None
    if all(r is not None and len(r) > 2 for r in results):
        kv_latency = _kv_latency_summary([r[2] for r in results])
    return {
        "workload": name,
        "n_ranks": ranks,
        "fingerprint": spans.fingerprint(),
        "n_spans": len(records),
        "window_s": [t0, t1],
        "attribution_s": attr,
        "critical_path": [
            {"t0": s[0], "t1": s[1], "category": s[2], "phase": s[3], "kind": s[4],
             "sid": None if s[5] is None else list(s[5])}
            for s in segments
        ],
        "diagnostics": diag,
        "kv_latency": kv_latency,
        "_spans": spans,      # stripped before JSON output
    }


def _kv_latency_summary(records: Sequence[dict]) -> dict:
    """Cross-rank request-latency percentiles from per-rank kv records.

    Merges every rank's read/write :class:`DwellHistogram` (exact merge —
    the histograms are log-bucketed counters, so cross-rank aggregation
    is deterministic and order-free) and reports p50/p95/p99/p999 per
    class and combined.
    """
    from repro.util.metrics import DwellHistogram

    read, write = DwellHistogram(), DwellHistogram()
    for rec in records:
        read.merge(DwellHistogram.from_dict(rec["read_lat"]))
        write.merge(DwellHistogram.from_dict(rec["write_lat"]))
    combined = DwellHistogram()
    combined.merge(read)
    combined.merge(write)

    def pcts(h: DwellHistogram) -> dict:
        return {
            "p50_s": h.percentile(50),
            "p95_s": h.percentile(95),
            "p99_s": h.percentile(99),
            "p999_s": h.percentile(99.9),
        }

    return {
        "reads": sum(rec["reads"] for rec in records),
        "writes": sum(rec["writes"] for rec in records),
        "read": pcts(read),
        "write": pcts(write),
        "all": pcts(combined),
    }


# ======================================================================
# Rendering
# ======================================================================
def _render_text(rep: dict) -> str:
    lines: List[str] = []
    attr = rep["attribution_s"]
    total = attr["total"]
    lines.append(
        f"== {rep['workload']} "
        f"({rep['n_spans']} spans, fingerprint {rep['fingerprint'][:16]}…) =="
    )
    w0, w1 = rep["window_s"]
    lines.append(f"analysis window: {(w1 - w0) * 1e6:.3f} us of simulated time")
    lines.append("time attribution (simulated critical path):")
    for cat in CATEGORIES:
        sec = attr.get(cat, 0.0)
        pct = 100.0 * sec / total if total else 0.0
        lines.append(f"  {cat:>13}  {sec * 1e6:10.3f} us  {pct:5.1f}%")
    covered = sum(attr.get(c, 0.0) for c in CATEGORIES)
    lines.append(
        f"  {'sum':>13}  {covered * 1e6:10.3f} us  "
        f"({100.0 * covered / total if total else 0.0:.2f}% of window)"
    )
    diag = rep["diagnostics"]
    if diag["frames_dropped"] or diag["frames_duplicated"] or diag["frames_retransmitted"]:
        lines.append(
            f"reliability: {diag['frames_dropped']} dropped / "
            f"{diag['frames_duplicated']} duplicated / "
            f"{diag['frames_retransmitted']} retransmitted frames"
        )
    kv = rep.get("kv_latency")
    if kv:
        lines.append(
            f"kv request latency ({kv['reads']} reads / {kv['writes']} writes, "
            "cross-rank merged):"
        )
        for cls in ("read", "write", "all"):
            p = kv[cls]
            lines.append(
                f"  {cls:>13}  p50 {p['p50_s'] * 1e6:8.2f} us  "
                f"p95 {p['p95_s'] * 1e6:8.2f} us  "
                f"p99 {p['p99_s'] * 1e6:8.2f} us  "
                f"p999 {p['p999_s'] * 1e6:8.2f} us"
            )
    segs = rep["critical_path"]
    lines.append(f"critical path: {len(segs)} segments; longest:")
    longest = sorted(segs, key=lambda s: s["t1"] - s["t0"], reverse=True)[:8]
    for s in longest:
        sid = "-" if s["sid"] is None else f"r{s['sid'][0]}#{s['sid'][1]}"
        lines.append(
            f"  {(s['t1'] - s['t0']) * 1e6:9.3f} us  {s['category']:>13}  "
            f"{s['kind'] or 'app'}:{s['phase']}  [{sid}]"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.tools.report",
        description="causal span report: critical path + time attribution",
    )
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default="fig3a")
    ap.add_argument("--faults", default=None,
                    help='fault-plan spec, e.g. "seed=1,drop=0.1,jitter=1e-6" '
                         "(see repro.sim.faults.FaultPlan.parse)")
    ap.add_argument("--format", choices=["text", "json", "perfetto"], default="text")
    ap.add_argument("--out", default=None, help="write output here instead of stdout")
    args = ap.parse_args(argv)

    rep = analyze_workload(args.workload, args.faults)
    spans = rep.pop("_spans")
    if args.format == "json":
        doc = dict(rep, schema="repro-span-report/2", faults=args.faults)
        text = json.dumps(doc, sort_keys=True, indent=2)
    elif args.format == "perfetto":
        from repro.util.trace_export import chrome_trace_span_events

        text = json.dumps(
            {"displayTimeUnit": "ms", "traceEvents": chrome_trace_span_events(spans)},
            sort_keys=True, separators=(",", ":"),
        )
    else:
        text = _render_text(rep)

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.format} report to {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
