"""Golden determinism fingerprints: the frozen reference the simulator is held to.

The simulator's contract is that a program plus its seeds fixes the run:
results, trace, spans and the scheduler's event counts.  The committed
``tests/golden/fingerprints.json`` is the reference for that
(docs/simulator.md §1).

This module holds the canonical programs of the determinism, chaos and
telemetry suites (name -> ``fn() -> Run``), reduces a run to its
fingerprint (``results`` sha256, canonical ``trace`` digest, ``spans``
fingerprint, ``events_posted``/``events_fired``, ``switches``) and
compares fingerprints with the committed file::

    PYTHONPATH=src python -m tests.golden --check [program ...]
    PYTHONPATH=src python -m tests.golden --write [program ...]

``--check`` prints which program and which component differs.
``--write`` is for a change that is *meant* to move simulated behaviour:
it prints, per program, ``unchanged`` or the components that moved
against the file it replaces (counters with both values) and a last line
``K changed, M unchanged`` — the evidence to paste and explain in review.
"""

import argparse
import hashlib
import json
import os
import sys
from functools import partial
from typing import Callable, Dict, NamedTuple, Optional

import numpy as np

import repro.upcxx as upcxx
from repro.sim.coop import Scheduler, current_scheduler
from repro.sim.errors import RankDeadError
from repro.util.spans import SpanBuffer
from repro.util.telemetry import Telemetry, dumps_blackbox
from repro.util.trace import TraceBuffer

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden", "fingerprints.json")


class Run(NamedTuple):
    """What one program run leaves behind; absent observers are None."""

    results: object
    trace: Optional[TraceBuffer] = None
    spans: Optional[SpanBuffer] = None
    stats: Optional[dict] = None


# ------------------------------------------------------------- fingerprints
def _plain(x):
    """``x`` as JSON-ready builtins (numpy scalars unwrapped, bytes as hex);
    anything else makes ``json.dumps`` raise rather than hash a ``repr``."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (bytes, bytearray)):
        return bytes(x).hex()
    if isinstance(x, np.generic):
        return x.item()
    return x


def digest(obj) -> str:
    """sha256 of ``obj``'s canonical JSON (floats round-trip exactly)."""
    text = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def trace_digest(trace: TraceBuffer) -> str:
    """Content hash of the canonical trace: what ``canonical_fingerprint()``
    hashes, without the interpreter's per-process string hash seed."""
    h = hashlib.sha256()
    for ev in trace.canonical_events():
        h.update(repr((round(ev.time, 12), ev.rank, ev.kind, ev.detail)).encode())
    return h.hexdigest()


def fingerprint(run: Run) -> dict:
    fp = {"results": digest(run.results)}
    if run.trace is not None:
        fp["trace"] = trace_digest(run.trace)
    if run.spans is not None:
        fp["spans"] = run.spans.fingerprint()
    if run.stats is not None:
        for key in ("events_posted", "events_fired", "switches"):
            fp[key] = run.stats[key]
    return fp


def load() -> dict:
    with open(GOLDEN_PATH) as f:
        return json.load(f)


def _differing(got: dict, want: dict) -> list:
    return [k for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]


def diff(name: str, got: dict, want: dict) -> list:
    """One line per differing component of program ``name``."""
    return [
        f"{name}: {key}: golden {want.get(key)!r}, got {got.get(key)!r}"
        for key in _differing(got, want)
    ]


def moved(got: dict, was: dict) -> list:
    """The components on which ``got`` differs from the entry it replaces;
    counters carry both values, digests only their name."""
    return [
        f"{key} {was[key]} -> {got[key]}"
        if isinstance(was.get(key), int) and isinstance(got.get(key), int) else key
        for key in _differing(got, was)
    ]


def check(golden: dict, names=None) -> list:
    """Run programs; return every difference from ``golden``."""
    out = []
    for name in names or PROGRAMS:
        if name not in golden:
            out.append(f"{name}: no golden entry")
            continue
        out += diff(name, fingerprint(PROGRAMS[name]()), golden[name])
    return out


def reproduces(name: str) -> Run:
    """Run one program and hold it to its golden entry.  Returns the run
    for further assertions."""
    run = PROGRAMS[name]()
    lines = diff(name, fingerprint(run), load()[name])
    assert not lines, "\n".join(lines)  # not a test module: pytest shows only this message
    return run


# ------------------------------------------------------------------ programs
def _spmd(body, ranks: int, **kw) -> Run:
    """A UPC++ program with every passive observer on."""
    trace, spans, stats = TraceBuffer(), SpanBuffer(), {}
    results = upcxx.run_spmd(body, ranks, trace=trace, spans=spans, sched_stats=stats, **kw)
    return Run(list(results), trace, spans, stats)


def fig3a_series() -> Run:
    """Fig. 3a blocking-put latency series; the measuring rank *returns*
    it (a rank's side effects stay on the rank, as in real UPC++)."""
    sizes = [8, 64, 512, 4096, 65536]

    def body():
        me = upcxx.rank_me()
        landing = upcxx.new_array(np.uint8, max(sizes))
        dest = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        out = {}
        if me == 0:
            for size in sizes:
                payload = bytes(size)
                t0 = upcxx.sim_now()
                for _ in range(4):
                    upcxx.rput(payload, dest).wait()
                out[size] = upcxx.sim_now() - t0
        upcxx.barrier()
        return (out, upcxx.sim_now())

    return _spmd(body, 2, platform="haswell", ppn=1)


def dht_totals(ppn=None) -> Run:
    """DHT insert totals (elapsed simulated time per rank); ``ppn=4``
    spreads the 16 ranks over 4 nodes: real cross-node AM + RMA mix."""
    from repro.apps.dht import DhtRmaLz

    def body():
        dht = DhtRmaLz()
        rng = upcxx.runtime_here().rng.spawn("dht-bench")
        payload = bytes(1024)
        upcxx.barrier()
        t0 = upcxx.sim_now()
        for _ in range(6):
            dht.insert(rng.key64(), payload).wait()
        upcxx.barrier()
        return upcxx.sim_now() - t0

    return _spmd(body, 16, platform="haswell", ppn=ppn)


def rpc_ring(ppn=None) -> Run:
    def body():
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        fut = upcxx.rpc((me + 1) % n, lambda: upcxx.rank_me())
        assert fut.wait() == (me + 1) % n
        upcxx.barrier()
        return upcxx.sim_now()

    return _spmd(body, 8, platform="haswell", ppn=ppn)


def sched_mixed_wakes() -> Run:
    """Raw scheduler workload mixing sleeps, posts, and cross-rank wakes."""

    def body(r):
        s = current_scheduler()
        s.charge(1e-6 * (r + 1))
        s.sleep(5e-6)
        s.charge(2e-6)
        if r == 0:
            for other in range(1, s.n_ranks):
                # fixed wake times: now() is rank-context-only, events are not
                s.post(1e-6 * other, lambda o=other: s.wake(o, 15e-6 + 1e-6 * o))
        s.sleep(20e-6)
        return s.now()

    trace = TraceBuffer()
    sched = Scheduler(4, trace=trace)
    return Run(sched.run(body), trace, None, sched.stats())


def mixed_collectives() -> Run:
    """The quickstart motif: a mix of collectives, chained RMA, lambda RPC
    and promise-tracked puts across a 2-node machine.  One node's ranks go
    momentarily idle (all blocked, no events) while the other node is
    still injecting the traffic that will reactivate them."""

    def body():
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        right = (me + 1) % n
        cell = upcxx.new_array(np.float64, 4)
        cell.local()[:] = me
        cells = [upcxx.broadcast(cell, root=r).wait() for r in range(n)]
        upcxx.barrier()
        upcxx.rput(np.full(4, 100.0 + me), cells[right]).then(lambda: None).wait()
        upcxx.barrier()
        upcxx.rget(cell).wait()
        answer = upcxx.rpc(right, lambda a, b: a * b, 6, 7).wait()
        assert answer == 42
        everyone = upcxx.when_all(*[upcxx.rpc(r, upcxx.rank_me) for r in range(n)]).wait()
        assert list(everyone) == list(range(n))
        p = upcxx.Promise()
        for i in range(8):
            upcxx.rput(float(i), cells[right][i % 4], cx=upcxx.operation_cx.as_promise(p))
        p.finalize().wait()
        total = upcxx.reduce_all(me, "+").wait()
        upcxx.barrier()
        return (total, upcxx.sim_now())

    return _spmd(body, 4, platform="haswell", ppn=2)


def span_mix() -> Run:
    """RMA + RPC mix: span sids are minted per-rank, records canonically
    merged, and the fingerprint is a content hash."""

    def body():
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        peer = (me + 1) % n
        cell = upcxx.new_array(np.uint8, 4096)
        cells = [upcxx.broadcast(cell, root=r).wait() for r in range(n)]
        upcxx.barrier()
        out = []
        for i in range(3):
            upcxx.rput(bytes(256 * (i + 1)), cells[peer]).wait()
            got = upcxx.rget(cells[peer], 16).wait()
            out.append(int(got.sum()))
        answer = upcxx.rpc(peer, lambda a, b: a + b, me, 7).wait()
        out.append(answer)
        upcxx.barrier()
        return (tuple(out), upcxx.sim_now())

    return _spmd(body, 4, platform="haswell", ppn=2)


# ---- chaos: fault plans draw from their own seeded stream
CHAOS_SEEDS = (3, 11, 42)
CHAOS_PLANS = (
    "drop=0.2,dup=0.1",
    "jitter=1e-6,dup=0.15,drop=0.05",
    "drop=0.3,jitter=5e-7,stall=20000:2e-6",
)
SEED13_SPEC = "seed=13,drop=0.2,dup=0.1,jitter=1e-6"
CRASH_SPECS = ("seed=1,crash=2@1e-4", "seed=1,crash=0@5e-5", "seed=1,crash=1@1e-4+3@2e-4")
REPLICATED_CRASH_SPECS = (
    "seed=7,crash=3@2e-4,survive=1",
    "seed=8,crash=1@1e-4,survive=1,detect=4e-5",
)


def mixed_body():
    """RMA + RPC + collective mix touching every reliable-delivery path."""
    me = upcxx.rank_me()
    n = upcxx.rank_n()
    g = upcxx.new_array(np.float64, 8)
    g.local()[:] = 0.0
    ptrs = [upcxx.broadcast(g, root=r).wait() for r in range(n)]
    ad = upcxx.AtomicDomain(["add", "fetch_add"], np.int64)
    counter = upcxx.new_array(np.int64, 1)
    counter.local()[:] = 0
    cptrs = [upcxx.broadcast(counter, root=r).wait() for r in range(n)]
    upcxx.barrier()

    upcxx.rput(np.full(8, float(me + 1)), ptrs[(me + 1) % n]).wait()
    upcxx.barrier()
    got = upcxx.rget(ptrs[(me + 2) % n]).wait()
    v = upcxx.rpc((me + 1) % n, lambda a, b: a * 10 + b, me, 3).wait()
    ad.add(cptrs[0][0], me + 1).wait()
    upcxx.barrier()
    total = int(counter.local()[0]) if me == 0 else -1
    red = upcxx.reduce_all(me, "+").wait()
    return (float(got.sum()), v, total, red, upcxx.sim_now())


def chaos_mixed(faults, seed=5) -> Run:
    return _spmd(mixed_body, 4, seed=seed, faults=faults)


def chaos_frame_counters() -> Run:
    """Retransmit/drop/dup/ack counters are part of the deterministic
    surface: they ride in ``results`` next to the per-rank values."""
    run = chaos_mixed("seed=4,drop=0.25,dup=0.2,jitter=1e-6", seed=4)
    keys = ("frames_retransmitted", "frames_dropped", "frames_duplicated", "acks")
    return run._replace(results=(run.results, {k: run.stats[k] for k in keys}))


def crash_body(iters=100):
    me = upcxx.rank_me()
    n = upcxx.rank_n()
    for i in range(iters):
        upcxx.rpc((me + 1) % n, lambda x: x, i).wait()
        upcxx.barrier()
    return me


def crash_verdict(body, spec, tel=None, **kw) -> Run:
    """A fail-stop crash: the typed verdict (rank, message) is the result.
    Span streams legitimately end early on the failing path."""
    try:
        upcxx.run_spmd(body, 4, seed=5, faults=spec, telemetry=tel, **kw)
    except RankDeadError as err:
        return Run((err.rank, str(err)))
    raise AssertionError(f"crash plan {spec!r} did not abort the run")


def agg_body():
    """Aggregated updates + cached reads: batching, dwell flushes, credit
    acks, and invalidations all under fire."""
    from repro.upcxx.aggregator import AggStore

    me = upcxx.rank_me()
    store = AggStore("+", batch_size=4, credits=2, max_dwell=5e-6,
                     cache_capacity=8)
    upcxx.barrier()
    rng = upcxx.runtime_here().rng.spawn("chaos-agg")
    for i in range(24):
        store.update(rng.key64() % 32, (me + 1) * (i + 1) % 7 + 1)
        if i % 5 == 0:
            store.poll()
    store.quiesce()
    vals = tuple(store.read(k, default=0).wait() for k in range(0, 32, 3))
    store.quiesce()
    upcxx.barrier()
    s = store.stats()
    return (vals, s["batches_sent"], s["applied_updates"], s["cache_hits"],
            s["cache_invalidations"], upcxx.sim_now())


def chaos_agg(faults, seed=17) -> Run:
    return _spmd(agg_body, 4, seed=seed, faults=faults)


def kv_service(faults=None, seed=7, **overrides) -> Run:
    """The served-KV workload (open-loop pacing + aggregation + cache)."""
    from repro.apps.kvservice import default_config, kv_rank_body

    cfg = default_config("tiny")
    cfg.update({"ranks": 4, "ppn": 2, "n_requests": 64, "n_keys": 64})
    cfg.update(overrides)
    return _spmd(lambda: kv_rank_body(cfg), cfg["ranks"],
                 ppn=cfg["ppn"], seed=seed, faults=faults)


def kv_replicated_crash(spec, replication=2) -> Run:
    """A survivable crash served through by the replicated KV service."""
    return kv_service(faults=spec, seed=9, n_keys=128, replication=replication)


# ---- telemetry: rollups and the crash blackbox
TEL_CRASH_SPEC = "seed=3,crash=1@3e-4"


def ring_body():
    me, n = upcxx.rank_me(), upcxx.rank_n()
    acc = 0
    # long enough that the TEL_CRASH_SPEC crash at t=3e-4 lands mid-work, so
    # the dying rank itself reaches the crash check and records its death
    for i in range(200):
        acc += upcxx.rpc((me + 1) % n, lambda x: x + 1, i).wait()
    upcxx.barrier()
    return acc


def telemetry_rollups() -> Run:
    tel = Telemetry()
    res = upcxx.run_spmd(ring_body, 4, ppn=2, seed=5, telemetry=tel)
    return Run((list(res), tel.dumps()))


def crash_blackbox(body, spec=TEL_CRASH_SPEC, path=None, **kw) -> Run:
    """A fail-stop crash with the flight recorder on: results are the typed
    verdict and the post-mortem bundle text (also written to ``path``)."""
    tel = Telemetry(blackbox_path=path)
    verdict = crash_verdict(body, spec, tel, **kw).results
    return Run(verdict + (dumps_blackbox(tel.blackbox),))


telemetry_blackbox = partial(crash_blackbox, body=ring_body, ppn=2)
ci_barrier_body = partial(crash_body, 200)


def survived_blackbox() -> Run:
    """The survivable analogue: the run completes and ``run_spmd`` emits a
    blackbox with a "Survived" verdict and per-rank replica-state tables."""
    from repro.apps.kvservice import default_config
    from repro.bench.kv_bench import run_kv

    cfg = default_config("tiny")
    cfg["replication"] = 2
    tel = Telemetry()
    run_kv(cfg, faults="seed=7,crash=3@3.5e-4,survive=1", telemetry=tel)
    assert tel.blackbox["verdict"]["type"] == "Survived", tel.blackbox["verdict"]
    return Run(dumps_blackbox(tel.blackbox))


def fault_report(spec) -> Run:
    """``repro.tools.report --workload fig3a --faults SPEC``: the span
    fingerprint pinned here is the one that report prints."""
    from repro.tools.report import WORKLOADS

    body, ranks, ppn = WORKLOADS["fig3a"]
    return _spmd(body, ranks, ppn=ppn, faults=spec)


PROGRAMS: Dict[str, Callable[[], Run]] = {
    "fig3a_series": fig3a_series,
    "dht_totals": dht_totals,
    "dht_totals_ppn4": partial(dht_totals, ppn=4),
    "rpc_ring": rpc_ring,
    "rpc_ring_ppn2": partial(rpc_ring, ppn=2),
    "sched_mixed_wakes": sched_mixed_wakes,
    "mixed_collectives": mixed_collectives,
    "span_mix": span_mix,
    "chaos_frame_counters": chaos_frame_counters,
    "chaos_agg_crash": partial(crash_verdict, body=agg_body, spec="seed=2,crash=2@1e-4"),
    "kv_service": kv_service,
    "kv_chaos": partial(kv_service, faults="seed=19,drop=0.15,dup=0.1,jitter=1e-6",
                        seed=9, n_requests=48),
    "telemetry_rollups": telemetry_rollups,
    "telemetry_blackbox": telemetry_blackbox,
    # the four chaos-smoke CI cells (.github/workflows/ci.yml)
    "ci_drop_heavy": partial(fault_report, "seed=1,drop=0.25,dup=0.1"),
    "ci_jitter_heavy": partial(fault_report, "seed=2,jitter=2e-6,dup=0.05"),
    "ci_rank_crash_blackbox": partial(crash_blackbox, body=ci_barrier_body),
    "ci_survived_blackbox": survived_blackbox,
}
for _seed in CHAOS_SEEDS:
    for _plan in CHAOS_PLANS:
        _spec = f"seed={_seed},{_plan}"
        PROGRAMS[f"chaos_mixed[{_spec}]"] = partial(chaos_mixed, faults=_spec, seed=_seed)
PROGRAMS[f"chaos_mixed[{SEED13_SPEC}]"] = partial(chaos_mixed, faults=SEED13_SPEC, seed=13)
for _plan in CHAOS_PLANS:
    PROGRAMS[f"chaos_agg[{_plan}]"] = partial(chaos_agg, faults="seed=17," + _plan)
for _spec in CRASH_SPECS:
    PROGRAMS[f"crash_verdict[{_spec}]"] = partial(crash_verdict, body=crash_body, spec=_spec)
for _spec in REPLICATED_CRASH_SPECS:
    PROGRAMS[f"kv_replicated_crash[{_spec}]"] = partial(kv_replicated_crash, spec=_spec)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare against the committed file; exit 1 on any difference")
    mode.add_argument("--write", action="store_true",
                      help="regenerate the committed file")
    ap.add_argument("programs", nargs="*", metavar="program",
                    help="restrict to these programs (default: all)")
    args = ap.parse_args(argv)
    for name in args.programs:
        if name not in PROGRAMS:
            ap.error(f"unknown program {name!r}; choose from {sorted(PROGRAMS)}")
    names = args.programs or list(PROGRAMS)
    if args.write:
        replaced = load() if os.path.exists(GOLDEN_PATH) else {}
        golden = dict(replaced) if args.programs else {}
        n_changed = 0
        for name in names:
            golden[name] = fingerprint(PROGRAMS[name]())
            # a program new to the file moves every component it has
            what = ", ".join(moved(golden[name], replaced.get(name, {}))) or "unchanged"
            n_changed += what != "unchanged"
            print(f"{name}: {what}")
        with open(GOLDEN_PATH, "w") as f:
            json.dump(golden, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {len(names)} program(s) to {GOLDEN_PATH}")
        print(f"{n_changed} changed, {len(names) - n_changed} unchanged")
        return 0
    diffs = check(load(), names)
    for line in diffs:
        print(line)
    print(f"{len(names)} program(s), {len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
