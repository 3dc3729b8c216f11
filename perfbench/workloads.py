"""The five pinned workloads of the benchmark.

Each workload is a class whose constructor does the untimed set-up from
``(seed, scale)`` and whose :meth:`rep` runs one repetition and returns a
record::

    wall_s        host seconds of the timed region (output checks excluded)
    ops, failed   operations attempted / found wrong by the output check
    sim_s         simulated seconds of the timed region
    sim_bytes     payload bytes behind sim_MBps, moved in sim_bytes_s
    sim_p50_s / sim_p99_s   per-op simulated latency (definition per workload)
    digest        sha256 over the per-rank result records
    extra         workload-specific counters for the per-layer sheet

``rep(obs)`` threads the program's own public observers
(``metrics``/``spans``/``sched_stats``) through ``run_spmd`` for the
per-layer sheet; end-to-end numbers are always taken with ``obs=None``.

Why these five and these sizes: see README.md in this directory.  The
library is driven through its public functions only; the bodies below
look every ``upcxx`` call up on the module at call time so the
benchmark's tracer (tracing.py) can wrap them from outside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import sys
from time import perf_counter_ns

import numpy as np

import repro.upcxx as upcxx
from repro.apps.dht import DhtRmaLz
from repro.apps.kvservice import KvService, default_config, kv_rank_body
from repro.apps.sparse import extend_add
from repro.mpisim import Communicator, run_mpi
from repro.mpisim.comm import MpiRuntime
from repro.upcxx import operation_cx
from repro.util import DwellHistogram, Metrics, SpanBuffer, summarize

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _digest(records) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True, default=repr).encode()).hexdigest()


class Observers:
    """The program's public observers for one observed repetition; the
    attributes are ``run_spmd``'s keyword arguments."""

    def __init__(self):
        self.metrics = Metrics()
        self.spans = SpanBuffer()
        self.sched_stats: dict = {}


def _obs_kwargs(obs) -> dict:
    return vars(obs) if obs is not None else {}


class _Timed:
    """The timed windows of one repetition (host clock)."""

    def __init__(self):
        self.windows_ns: list = []

    def __enter__(self):
        self._t0 = perf_counter_ns()

    def __exit__(self, *_exc):
        self.windows_ns.append((self._t0, perf_counter_ns()))

    def record(self, **fields) -> dict:
        wall = sum(t1 - t0 for t0, t1 in self.windows_ns) * 1e-9
        return {"wall_s": wall, "windows_ns": self.windows_ns, **fields}


#: trace points every UPC++ workload shares: (owner, attribute, span name,
#: kind); the kinds are defined in tracing.py
UPCXX_POINTS = [
    (upcxx, "run_spmd", "upcxx.run_spmd", "launch"),
    (upcxx, "rput", "upcxx.rput", "inject"),
    (upcxx, "rget", "upcxx.rget", "inject"),
    (upcxx, "rpc", "upcxx.rpc", "inject"),
    (upcxx, "rpc_ff", "upcxx.rpc_ff", "inject"),
    (upcxx, "progress", "upcxx.progress", "wait"),
    (upcxx, "barrier", "upcxx.barrier", "wait"),
    (upcxx.Future, "wait", "future.wait", "wait"),
]


# ---------------------------------------------------------------------------
class DhtInsertFind:
    """Fig. 4a point: blocking insert then blocking find-back, 64 ranks."""

    name = "dht_insert_find"
    ranks, ppn = 64, 32
    value_bytes, value_jitter = 1024, 16
    trace_points = UPCXX_POINTS + [
        (DhtRmaLz, "insert", "dht.insert", "app"),
        (DhtRmaLz, "find", "dht.find", "app"),
    ]

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.per_rank = max(1, round(64 * scale))

    def rep(self, obs=None) -> dict:
        n, vb, vj = self.per_rank, self.value_bytes, self.value_jitter

        def body():
            dht = DhtRmaLz()
            rng = upcxx.runtime_here().rng.spawn("perfbench-dht")
            keys = [rng.key64() for _ in range(n)]
            # value lengths are drawn too: with one fixed length the
            # modelled latency takes a handful of discrete values and the
            # median would read the same for every seed
            vals = [rng.py.randbytes(vb + rng.py.randrange(-vj, vj + 1)) for _ in range(n)]
            now = upcxx.sim_now
            lat = []
            upcxx.barrier()
            t0 = now()
            for k, v in zip(keys, vals):
                t = now()
                dht.insert(k, v).wait()
                lat.append(now() - t)
            upcxx.barrier()
            bad = 0
            for k, v in zip(keys, vals):
                t = now()
                got = dht.find(k).wait()
                lat.append(now() - t)
                if got != v:
                    bad += 1
            upcxx.barrier()
            return now() - t0, lat, bad, sum(map(len, vals))

        timed = _Timed()
        with timed:
            res = upcxx.run_spmd(
                body, self.ranks, ppn=self.ppn, seed=self.seed,
                segment_size=4 << 20, **_obs_kwargs(obs),
            )
        lat = summarize([x for r in res for x in r[1]])
        sim_s = max(r[0] for r in res)
        return timed.record(
            ops=2 * n * self.ranks,
            failed=sum(r[2] for r in res),
            sim_s=sim_s,
            sim_bytes=2 * sum(r[3] for r in res),  # written once, read once
            sim_bytes_s=sim_s,
            sim_p50_s=lat.p50,
            sim_p99_s=lat.p99,
            digest=_digest(res),
            extra={},
        )


# ---------------------------------------------------------------------------
class PutFlood:
    """Fig. 3b: promise-tracked non-blocking rput flood, 2 ranks."""

    name = "put_flood"
    #: (nominal size, +/- jitter drawn from the seed, puts)
    phases = [(8, 0, 30000), (512, 8, 30000), (8192, 64, 30000), (131072, 1024, 4000)]
    #: sim_MBps and the latency samples come from the 8 KiB phase, Fig. 3b's
    #: peak-gap size and the first size at which the NIC, not the CPU, paces
    #: the flood (below it every completion latency is the same few values)
    latency_phase = 2
    sample_every = 16
    trace_points = UPCXX_POINTS

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.counts = [max(self.sample_every, round(n * scale)) for _s, _j, n in self.phases]

    def rep(self, obs=None) -> dict:
        phases, counts, every = self.phases, self.counts, self.sample_every
        landing_bytes = max(s + j for s, j, _n in phases)

        def body():
            me = upcxx.rank_me()
            landing = upcxx.new_array(np.uint8, landing_bytes)
            dest = upcxx.broadcast(landing, root=1).wait()
            out = None
            upcxx.barrier()
            if me == 0:
                rng = upcxx.runtime_here().rng.spawn("perfbench-flood").py
                now = upcxx.sim_now
                lat = []
                out = {"phases": [], "lat": lat}

                def sampled(t_issue, promise):
                    # in the 8 KiB phase one put in `every` reports its own
                    # completion, so the flood has a per-op latency to show;
                    # all others are counted by the shared promise as in
                    # the paper's listing
                    def done():
                        lat.append(now() - t_issue)
                        promise.fulfill_anonymous(1)

                    return done

                for i, ((size, jitter, _n), n) in enumerate(zip(phases, counts)):
                    if jitter:
                        size += rng.randrange(-jitter, jitter + 1)
                    payload = rng.randbytes(size)
                    sample = every if i == self.latency_phase else 0
                    t0 = now()
                    p = upcxx.Promise()
                    k = n
                    while k:
                        k -= 1
                        if sample and not k % sample:
                            p.require_anonymous(1)
                            upcxx.rput(payload, dest).then(sampled(now(), p))
                        else:
                            upcxx.rput(payload, dest, cx=operation_cx.as_promise(p))
                        if not (k % 10):
                            upcxx.progress()  # occasional progress (paper listing)
                    p.finalize().wait()
                    elapsed = now() - t0
                    landed = bytes(upcxx.rget(dest, count=size).wait())
                    out["phases"].append((size, n, elapsed, landed == payload))
            upcxx.barrier()
            return out

        timed = _Timed()
        with timed:
            res = upcxx.run_spmd(body, 2, ppn=1, seed=self.seed, **_obs_kwargs(obs))
        ph = res[0]["phases"]
        lat = summarize(res[0]["lat"])
        size, n, elapsed, _ok = ph[self.latency_phase]
        return timed.record(
            ops=sum(p[1] for p in ph),
            failed=sum(p[1] for p in ph if not p[3]),
            sim_s=sum(p[2] for p in ph),
            sim_bytes=size * n,
            sim_bytes_s=elapsed,
            sim_p50_s=lat.p50,
            sim_p99_s=lat.p99,
            digest=_digest(res),
            extra={},
        )


# ---------------------------------------------------------------------------
class EaddFig8:
    """Fig. 8 point: the three extend-add variants at 16 processes."""

    name = "eadd_fig8"
    procs, ppn = 16, 32
    #: the proxy problem of results/fig8_eadd_haswell.json; the seed picks
    #: one of its three orientations (same fronts, different index order)
    grid, leaf = (16, 16, 12), 48
    variants = ("UPC++ RPC", "MPI Alltoallv", "MPI P2P")
    trace_points = UPCXX_POINTS + [
        (upcxx, "when_all", "upcxx.when_all", "inject"),
        (Communicator, "alltoallv", "mpi.alltoallv", "wait"),
        (Communicator, "barrier", "mpi.barrier", "wait"),
        (Communicator, "issend", "mpi.issend", "inject"),
        (Communicator, "irecv", "mpi.irecv", "inject"),
        (MpiRuntime, "wait_all", "mpi.wait_all", "wait"),
    ]  # plus this module's own reference to run_mpi, appended below the class

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        g = self.grid
        orient = seed % 3
        grid = (g, (g[0], g[2], g[1]), (g[2], g[0], g[1]))[orient]
        leaf = self.leaf
        if scale < 1.0:  # --quick: a small tree, no recorded ordering
            grid, leaf = tuple(max(4, x // 2) for x in grid), 12
        self.plan = extend_add.build_eadd_plan(*grid, n_procs=self.procs, leaf_size=leaf)
        self.reference = extend_add.serial_eadd_reference(self.plan)
        self.msgs = sum(self.plan.expected.values())
        #: sweep-time ordering recorded for this grid, or None off-grid
        self.recorded_order = self._recorded_order() if (orient == 0 and scale >= 1.0) else None

    def _recorded_order(self):
        path = os.path.join(REPO_ROOT, "results", "fig8_eadd_haswell.json")
        with open(path) as fh:
            series = json.load(fh)["series"]
        at = {s["label"]: s["y"][s["x"].index(self.procs)] for s in series}
        return sorted(self.variants, key=at.__getitem__)

    def _bad_fronts(self, collected) -> list:
        bad = []
        for pid in self.plan.parents:
            n = self.plan.fronts[pid].front_size
            acc = np.zeros((n, n))
            for insts in collected.values():
                if pid in insts:
                    acc += insts[pid].dense()
            if not np.array_equal(acc, self.reference[pid]):
                bad.append(pid)
        return bad

    def rep(self, obs=None) -> dict:
        plan = self.plan
        timed = _Timed()
        sweeps, failed = {}, 0
        for label in self.variants:
            # the three runs each map 16 x 32 MiB of segments; collecting
            # between them (untimed) keeps the resident set at one run's worth
            gc.collect()
            collected: dict = {}
            with timed:
                if label == "UPC++ RPC":
                    times = upcxx.run_spmd(
                        lambda: extend_add.upcxx_eadd_run(plan, collect=collected),
                        self.procs, ppn=self.ppn, seed=self.seed, **_obs_kwargs(obs),
                    )
                else:
                    kind = "alltoallv" if label == "MPI Alltoallv" else "p2p"
                    times = run_mpi(
                        lambda: extend_add.mpi_eadd_run(plan, kind, collect=collected),
                        self.procs, ppn=self.ppn,
                    )
            sweeps[label] = list(times)
            for pid in self._bad_fronts(collected):
                failed += sum(plan.expected.get((pid, r), 0) for r in plan.teams[pid])
        worst = {label: max(ts) for label, ts in sweeps.items()}
        order = sorted(self.variants, key=worst.__getitem__)
        if self.recorded_order is not None and order != self.recorded_order:
            failed = 3 * self.msgs  # the figure's ordering is part of the output
        per_rank = summarize([x for ts in sweeps.values() for x in ts])
        sim_s = sum(worst.values())
        walls = [(t1 - t0) * 1e-9 for t0, t1 in timed.windows_ns]
        return timed.record(
            ops=3 * self.msgs,
            failed=failed,
            sim_s=sim_s,
            sim_bytes=3 * plan.total_entries * 24,  # value + two indices per entry
            sim_bytes_s=sim_s,
            # samples: each rank's sweep time in each variant (48 of them),
            # so p99 sits among the ranks of the slowest variant
            sim_p50_s=per_rank.p50,
            sim_p99_s=per_rank.p99,
            digest=_digest(sweeps),
            extra={
                "variant_wall_s": dict(zip(self.variants, walls)),
                # the MPI variants take no observers: observed counts cover
                # the UPC++ sweep alone
                "observed_ops": self.msgs,
                "observed_wall_s": walls[0],
            },
        )


EaddFig8.trace_points.append((sys.modules[__name__], "run_mpi", "mpisim.run_mpi", "launch"))


# ---------------------------------------------------------------------------
class _KvWorkload:
    """kvservice under open-loop Poisson/Zipf traffic, 8 front-end ranks."""

    overrides: dict = {}
    trace_points = UPCXX_POINTS + [
        (KvService, "get", "svc.get", "app"),
        (KvService, "put", "svc.put", "app"),
        (KvService, "poll", "svc.poll", "app"),
        (KvService, "drain", "svc.drain", "app"),
        (upcxx.AggStore, "update_to", "agg.update", "inject"),
        (upcxx.AggStore, "poll", "agg.poll", "inject"),
        (upcxx.AggStore, "quiesce", "agg.quiesce", "wait"),
        (upcxx.ReplicatedStore, "read", "repl.read", "inject"),
        (upcxx.ReplicatedStore, "anti_entropy", "repl.anti_entropy", "wait"),
        (upcxx.Runtime, "wait_quiet", "runtime.wait_quiet", "wait"),
    ]

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        cfg = default_config("tiny")
        cfg.update(ranks=8, ppn=4, n_keys=1024, cache_capacity=128, batch_size=64,
                   admission_limit=None)
        cfg.update(self.overrides)
        cfg["n_requests"] = max(64, round(cfg["n_requests"] * scale))
        self.cfg = cfg

    def rep(self, obs=None) -> dict:
        cfg = self.cfg
        timed = _Timed()
        with timed:
            res = upcxx.run_spmd(
                lambda: kv_rank_body(cfg), cfg["ranks"], platform="haswell", ppn=cfg["ppn"],
                seed=self.seed, **_obs_kwargs(obs),
            )
        generated = cfg["ranks"] * cfg["n_requests"]
        served = sum(r["reads"] + r["writes"] for r in res)
        issued = sum(r["requests_issued"] for r in res)
        shed = sum(r["requests_shed"] for r in res)
        lost = sum(r["writes_lost"] for r in res)
        # every generated request is issued and served, none shed or lost
        failed = generated - served
        if not (issued == generated and shed == 0 and lost == 0
                and sum(r["requests_served"] for r in res) == issued):
            failed = max(failed, 1)
        lat = DwellHistogram()
        for r in res:
            lat.merge(DwellHistogram.from_dict(r["read_lat"]))
            lat.merge(DwellHistogram.from_dict(r["write_lat"]))
        sim_s = max(r["t_serve_s"] for r in res)
        hits = sum(r["cache_hits"] for r in res)
        misses = sum(r["cache_misses"] for r in res)
        return timed.record(
            ops=generated,
            failed=failed,
            sim_s=sim_s,
            sim_bytes=8 * served,  # one 8-byte value per request
            sim_bytes_s=sim_s,
            # sojourn from the arrival time the traffic model drew; the
            # service keeps these in log2-bucketed histograms
            sim_p50_s=lat.percentile(50),
            sim_p99_s=lat.percentile(99),
            digest=_digest(res),
            extra={
                "cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "updates_per_batch": (
                    sum(r["updates_sent"] for r in res) / max(1, sum(r["batches_sent"] for r in res))
                ),
                "credit_stall_s": sum(r["credit_stall_s"] for r in res),
            },
        )


class KvReadHeavy(_KvWorkload):
    """90 % reads at a quarter of the knee: cache hits and read RPCs."""

    name = "kv_read_heavy"
    overrides = {"read_fraction": 0.9, "rate": 200_000.0, "n_requests": 2560}


class KvWriteHeavy(_KvWorkload):
    """10 % reads, every request offered at once: batching, credits, acks."""

    name = "kv_write_heavy"
    # rate 1e9 is kv_bench's saturating idiom (pacing never sleeps), so the
    # run measures modelled capacity.  At 8x the base rate, just past the
    # knee, arrival randomness met capacity and the median sojourn moved by
    # a third from seed to seed (IQR/median 0.33 over seeds 11-20; 0.015 here)
    overrides = {"read_fraction": 0.1, "rate": 1e9, "n_requests": 8192}


WORKLOADS = {
    w.name: w for w in (DhtInsertFind, PutFlood, EaddFig8, KvReadHeavy, KvWriteHeavy)
}
