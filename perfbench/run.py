#!/usr/bin/env python3
"""perfbench: the repo's benchmark.  See README.md in this directory.

Two ways in:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload, one JSON object on the last line of standard output:
    the end-to-end metrics (``--trace 0``) or the per-layer metrics
    (``--trace 1``) that BENCHMARK.json declares.

``run.py [--seed N] [--workloads ...] [--layers] [--out FILE]``
    the whole sheet for a person: every end-to-end metric of every
    workload by name with unit and clock, plus, with ``--layers``, every
    per-layer metric.  ``--selfcheck`` runs the end-to-end set twice and
    compares; ``--quick`` is the benchmark's own smoke test.

This process only waits: each measurement runs in a pinned subprocess
(worker.py), so nothing here imports ``repro``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
HOST_END_TO_END = ("host_ops_per_s", "peak_rss_mb", "setup_s")

#: a whole run of one workload must end well inside the 180 s the
#: contract allows; every subprocess gets what is left of this
RUN_DEADLINE_S = 170.0


def clock_of(name: str) -> str:
    """Which clock a metric is on: host time, simulated time, or an exact count."""
    if name.startswith("sim_") or ".sim_" in name or name == "upcxx.agg.credit_stall_s":
        return "sim"
    if PER_LAYER.get(name, {}).get("unit") == "count" or name == "upcxx.agg.cache_hit_ratio":
        return "count"
    return "host"


class Runner:
    """Spawns workers under one deadline and parses their last line."""

    def __init__(self):
        self.t_start = perf_counter()

    def worker(self, *argv) -> dict:
        left = RUN_DEADLINE_S - (perf_counter() - self.t_start)
        if left <= 0:
            raise TimeoutError("perfbench run exceeded its deadline")
        cmd = [sys.executable, WORKER, "--t0", repr(perf_counter()), *map(str, argv)]
        # a fixed hash seed takes one process-to-process difference away;
        # run() kills the child and waits for it if the timeout expires
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=left,
                              env={**os.environ, "PYTHONHASHSEED": "0"})
        if proc.returncode != 0:
            raise RuntimeError(f"worker failed ({proc.returncode}): {' '.join(cmd)}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


#: a measurement is this many fresh pinned processes, pooled: set-up time
#: needs several set-ups to choose from, and what differs from one process
#: to the next (address layout, allocator state) is sampled too
PROCESSES = 3


def summarise(docs) -> dict:
    """Pool the worker records of one workload into one sheet entry."""
    first = docs[0]
    walls = sorted(w for d in docs for w in d["rep_wall_s"])
    q1, med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    # simulated results must agree between processes as well as repetitions
    same = all(d["sim"] == first["sim"] and d["sim_digest"] == first["sim_digest"] for d in docs)
    doc = {k: first[k] for k in ("workload", "seed", "ops", "sim_digest")}
    doc.update(
        attempted=sum(d["attempted"] for d in docs),
        failed=sum(d["failed"] for d in docs),
        deterministic=same and all(d["deterministic"] for d in docs),
        rep_wall_s={"n": len(walls), "min": walls[0], "q1": q1, "median": med, "q3": q3,
                    "max": walls[-1]},
        metrics={
            # the fastest repetition and the fastest set-up: on a shared
            # host the noise only ever adds time (README, "Run discipline")
            "host_ops_per_s": first["ops"] / walls[0],
            "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in docs),
            "setup_s": min(d["setup_s"] for d in docs),
            **first["sim"],
        },
    )
    doc["correct"] = doc["failed"] == 0 and doc["deterministic"]
    if "layers" in first:
        doc["layers"] = first["layers"]
    return doc


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    """Measure one workload with every observer off."""
    run = Runner()
    # repetitions are sized at 1.5 to 2.7 s, so the timed budget buys 2 per
    # process (the PR driver's 10 s) or 3 (21 s by hand)
    reps = min(3, max(2, round(seconds / (PROCESSES * 2.3))))
    return summarise([
        run.worker("--workload", name, "--seed", seed, "--reps", reps) for _ in range(PROCESSES)
    ])


def per_layer(name: str, seed: int, micro, unpinned_scale: float) -> dict:
    """Traced + observed repetitions of one workload, and the micro sheet."""
    run = Runner()
    doc = summarise([run.worker("--workload", name, "--seed", seed, "--mode", "trace")])
    doc["layers"].update(micro_sheet(run, micro, unpinned_scale))
    return doc


def micro_sheet(run: Runner, micro, unpinned_scale: float) -> dict:
    target, samples = micro
    out = run.worker("--mode", "micro", "--micro-target", target, "--micro-samples", samples)["metrics"]
    # the same small DHT repetition pinned and unpinned: what pinning buys
    # on this runner today.  Noisy by nature; printed, never compared.
    args = ["--workload", "dht_insert_find", "--scale", unpinned_scale, "--reps", 1]
    pinned = run.worker(*args)["rep_wall_s"][0]
    unpinned = run.worker(*args, "--no-pin")["rep_wall_s"][0]
    out["sim.unpinned_slowdown"] = unpinned / pinned
    return out


# ------------------------------------------------------------------ contract
def contract_main(args) -> int:
    if args.trace:
        doc = per_layer(args.workload, args.seed, (0.03, 3), 1 / 16)
        declared, values = PER_LAYER, doc["layers"]
    else:
        doc = end_to_end(args.workload, args.seed, args.seconds)
        declared, values = END_TO_END, doc["metrics"]
    print_sheet([doc], sys.stderr)
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": values[name], "unit": m["unit"]} for name, m in declared.items()},
    }))
    return 0


# --------------------------------------------------------------------- sheet
def print_sheet(docs, out=sys.stdout) -> None:
    for doc in docs:
        walls = doc["rep_wall_s"]
        print(
            f"== {doc['workload']} seed {doc['seed']}: {doc['ops']} ops/rep, "
            f"{walls['n']} reps, wall min {walls['min']:.3f} q1 {walls['q1']:.3f} "
            f"median {walls['median']:.3f} q3 {walls['q3']:.3f} max {walls['max']:.3f} s "
            f"(iqr {100 * (walls['q3'] - walls['q1']) / walls['median']:.1f} %), "
            f"fail_frac {doc['failed'] / doc['attempted']:g}, "
            f"sim_digest {doc['sim_digest'][:16]}"
            + ("" if doc["deterministic"] else "  ** simulated results differ between repetitions **"),
            file=out,
        )
        print_metrics({**doc["metrics"], **doc.get("layers", {})}, out)


def print_metrics(metrics: dict, out=sys.stdout) -> None:
    for name, value in metrics.items():
        unit = (END_TO_END.get(name) or PER_LAYER[name])["unit"]
        print(f"  {name:<44} {value:>16.6g} {unit:<10} {clock_of(name)}", file=out)


def provenance(seed: int) -> dict:
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True).stdout.strip()
    except OSError:
        rev = ""
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_mask": sorted(os.sched_getaffinity(0)),
        "git_rev": rev or "not a git checkout",
        "seed": seed,
    }


def sheet_main(args) -> int:
    names = args.workloads or WORKLOADS
    docs = [end_to_end(n, args.seed, args.seconds) for n in names]
    print_sheet(docs)
    report = {"provenance": provenance(args.seed), "end_to_end": docs}
    if args.layers:
        # the end-to-end numbers above stand; these runs add the layers
        traced = [
            summarise([Runner().worker(
                "--workload", n, "--seed", args.seed, "--mode", "trace",
                "--trace-out", os.path.join(HERE, "out", f"trace_{n}.json"))])
            for n in names
        ]
        micro = micro_sheet(Runner(), (0.3, 5), 0.25)
        report["provenance"]["host.calib_ns"] = micro["host.calib_ns"]
        report["per_layer"] = {"workloads": traced, "micro": micro}
        for doc in traced:
            print(f"== {doc['workload']} per-layer (traced and observed repetitions)")
            print_metrics(doc["layers"])
        print("== per-layer microbenchmarks")
        print_metrics(micro)
        print(f"Chrome traces: {os.path.join('perfbench', 'out')}/trace_<workload>.json")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0 if all(d["correct"] for d in docs) else 1


# ----------------------------------------------------------------- selfcheck
def selfcheck_main(args) -> int:
    names = args.workloads or WORKLOADS
    a = {n: end_to_end(n, args.seed, args.seconds) for n in names}
    b = {n: end_to_end(n, args.seed, args.seconds) for n in names}
    bad = 0
    print(f"{'workload':<18} {'metric':<16} {'A':>14} {'B':>14} {'rel diff':>9} {'allowed':>8}")
    for n in names:
        for name, spec in END_TO_END.items():
            va, vb = a[n]["metrics"][name], b[n]["metrics"][name]
            diff = abs(vb - va) / abs(va)
            # host metrics may differ by half their bound; simulated ones not at all
            allowed = spec["bound"] / 2 if name in HOST_END_TO_END else 0.0
            ok = diff <= allowed
            bad += not ok
            print(f"{n:<18} {name:<16} {va:>14.6g} {vb:>14.6g} {diff:>9.4f} {allowed:>8.3f}"
                  + ("" if ok else "  FAIL"))
        same = a[n]["sim_digest"] == b[n]["sim_digest"]
        clean = a[n]["correct"] and b[n]["correct"]
        bad += (not same) + (not clean)
        print(f"{n:<18} sim_digest {'identical' if same else 'DIFFERS  FAIL'}; "
              f"fail_frac {a[n]['failed'] / a[n]['attempted']:g} / {b[n]['failed'] / b[n]['attempted']:g}"
              + ("" if clean else "  FAIL"))
    print("selfcheck:", "ok" if not bad else f"{bad} failure(s)")
    return 1 if bad else 0


# --------------------------------------------------------------------- quick
def quick_main(args) -> int:
    """One repetition at one-eighth size; checks names and values, not speed."""
    printed: dict = {}
    for n in WORKLOADS:
        doc = summarise([Runner().worker("--workload", n, "--seed", args.seed, "--scale", 0.125,
                                         "--reps", 1, "--mode", "trace")])
        if not doc["correct"]:
            print(f"quick: {n} produced wrong output", file=sys.stderr)
            return 1
        printed.update(doc["metrics"])
        printed.update(doc["layers"])
    printed.update(micro_sheet(Runner(), (0.002, 1), 1 / 32))
    declared = set(END_TO_END) | set(PER_LAYER)
    problems = []
    if declared != set(printed):
        problems.append(f"declared but not printed {sorted(declared - set(printed))}, "
                        f"printed but not declared {sorted(set(printed) - declared)}")
    problems += [f"bad name {k!r}" for k in printed if not re.fullmatch(r"[A-Za-z0-9_.-]+", k)]
    problems += [f"{k} is not finite: {v!r}" for k, v in printed.items() if not math.isfinite(v)]
    for p in problems:
        print("quick:", p, file=sys.stderr)
    print(f"quick: {len(printed)} metrics, {len(problems)} problem(s)")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="contract mode: run this one workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="contract mode: 0 = end-to-end metrics, 1 = per-layer metrics")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed budget per workload: 6 repetitions under 15 s, else 9")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, metavar="NAME")
    ap.add_argument("--layers", action="store_true", help="also print every per-layer metric")
    ap.add_argument("--out", help="write the sheet as JSON here")
    ap.add_argument("--selfcheck", action="store_true", help="A/A: run the end-to-end set twice")
    ap.add_argument("--quick", action="store_true", help="smoke test of names and values")
    args = ap.parse_args(argv)
    if args.workload:
        args.seconds = args.seconds or SPEC["run_seconds"]
        return contract_main(args)
    args.seconds = args.seconds or 21.0
    if args.quick:
        return quick_main(args)
    if args.selfcheck:
        return selfcheck_main(args)
    return sheet_main(args)


if __name__ == "__main__":
    sys.exit(main())
