#!/usr/bin/env python3
"""Observability demo: rollups, blackbox post-mortem, Perfetto counters, health.

Part 1 runs a small DHT workload with every observability surface armed —
metrics, scheduler trace, causal spans, and the telemetry subsystem's
windowed rollups — then exports one Perfetto trace whose counter tracks
(`tel.ops`, `tel.queues`, `tel.nic`, `tel.agg`, `tel.attentiveness`)
plot the rollup windows over simulated time, and asks
``repro.tools.health`` for a verdict on the run.

Part 2 injects a rank crash into an RPC ring with telemetry and a
scheduler trace on: the rollups are frozen at the crash cutoff and dumped
as a ``blackbox.json`` post-mortem bundle — the dead rank's last actions
and every survivor's tail (each rank's last trace events up to the
cutoff), and the dead rank's pending operation table.

Both parts are deterministic: same seed, same output.

Run:  python examples/observability_demo.py
"""

import json

import repro.upcxx as upcxx
from repro.sim.errors import RankDeadError, RankFailure
from repro.tools.health import evaluate
from repro.util import Metrics, SpanBuffer, Telemetry, TraceBuffer, export_chrome_trace

TRACE_PATH = "/tmp/observability_demo.trace.json"
BLACKBOX_PATH = "/tmp/observability_demo.blackbox.json"


# ------------------------------------------------------------ part 1: rollups
def dht_body():
    from repro.apps.dht import DhtRmaLz

    me = upcxx.rank_me()
    dht = DhtRmaLz()
    upcxx.barrier()
    upcxx.when_all(*[dht.insert(me * 100 + i, bytes([me % 251]) * 64)
                     for i in range(6)]).wait()
    upcxx.barrier()
    total = upcxx.reduce_one(dht.local_size(), "+", root=0).wait()
    upcxx.barrier()
    return total


def healthy_run():
    metrics, trace = Metrics(), TraceBuffer()
    spans, tel = SpanBuffer(), Telemetry()
    res = upcxx.run_spmd(dht_body, 8, platform="haswell", ppn=4, seed=42,
                         metrics=metrics, trace=trace, spans=spans,
                         telemetry=tel)
    print(f"part 1: DHT run done, {res[0]} total entries")

    # windowed rollups: one cumulative snapshot per rank per window edge
    n_windows = sum(len(rt.windows) for rt in tel.ranks.values())
    r0 = tel.ranks[0].windows[-1]
    nic = r0["nic"]
    print(f"  rollups: {n_windows} windows across {len(tel.ranks)} ranks")
    print(f"  rank 0 final window: {nic['puts'] + nic['gets'] + nic['ams'] + nic['amos']} "
          f"NIC injections, {nic['bytes_out']} bytes out, {r0['ams']} AM polls, "
          f"max progress gap {r0['max_gap_s'] * 1e6:.2f} us")

    # Perfetto export: spans/instants plus the telemetry counter tracks
    export_chrome_trace(TRACE_PATH, trace, metrics, telemetry=tel)
    with open(TRACE_PATH) as fh:
        events = json.load(fh)["traceEvents"]
    n_counters = sum(1 for e in events
                     if e["ph"] == "C" and e.get("cat") == "telemetry")
    print(f"  wrote {TRACE_PATH}: {len(events)} events, "
          f"{n_counters} telemetry counter samples "
          "(open in ui.perfetto.dev)")

    # health gate: the same rules CI runs, as a library call
    verdicts = evaluate({"telemetry": json.loads(tel.dumps())})
    for v in verdicts:
        print(f"  {v.line()}")
    worst = ("FAIL" if any(v.status == "FAIL" for v in verdicts)
             else "WARN" if any(v.status == "WARN" for v in verdicts)
             else "PASS")
    print(f"  health verdict: {worst}")


# ------------------------------------------------- part 2: blackbox bundle
def ring_body():
    me, n = upcxx.rank_me(), upcxx.rank_n()
    acc = 0
    for i in range(200):
        acc += upcxx.rpc((me + 1) % n, lambda x: x * 2, i).wait()
    upcxx.barrier()
    return acc


def crash_run():
    # the trace is where the bundle's per-rank tails are cut from
    tel = Telemetry(blackbox_path=BLACKBOX_PATH)
    try:
        upcxx.run_spmd(ring_body, 4, platform="haswell", ppn=2, seed=5,
                       faults="seed=3,crash=1@3e-4", telemetry=tel,
                       trace=TraceBuffer())
        raise AssertionError("crash plan did not fire")
    except (RankDeadError, RankFailure) as err:
        print(f"part 2: caught {type(err).__name__}: {err}")

    bb = tel.blackbox
    v = bb["verdict"]
    print(f"  blackbox verdict: rank {v['rank']} ({v['type']}), "
          f"cutoff t={bb['cutoff_s'] * 1e6:.1f} us")
    dead = bb["ranks"][str(v["rank"])]
    t_last, kind_last, detail_last = dead["tail"][-1]
    print(f"  dead rank: {len(dead['tail'])} trace events; last was "
          f"'{kind_last}:{detail_last}' at {t_last * 1e6:.2f} us")
    pend = dead["pending"]
    if pend is not None:
        print(f"  dead rank pending: defQ={pend['defQ']} actQ={pend['actQ']} "
              f"compQ={pend['compQ']} outstanding replies={pend['replies']}")
    survivors = [r for r, rec in sorted(bb["ranks"].items()) if not rec["dead"]]
    print(f"  survivor tails captured for ranks: {', '.join(survivors)}")
    print(f"  wrote {BLACKBOX_PATH}")


if __name__ == "__main__":
    healthy_run()
    crash_run()
    print("observability_demo finished.")
