"""Per-layer microbenchmarks: one public call each, timed from outside.

Every entry loops one public function of one layer with host
``perf_counter_ns`` around the loop and reports the fastest of ``samples``
loops of about ``target_s`` seconds (the host's noise only adds time).  Calls that need a runtime are made
from rank 0 of a small ``run_spmd``/``run_mpi``/bare-``Scheduler`` job;
the other ranks sit in a barrier, which keeps them attentive.

``host.calib_ns`` is a fixed pure-Python kernel printed with every sheet
so numbers from two runners can be normalised by hand.  It never scales a
reported metric.
"""

from __future__ import annotations

import gc
import heapq
import os
import random
from time import perf_counter_ns

import numpy as np

import repro.upcxx as upcxx
from repro.gasnet.conduit import Conduit
from repro.gasnet.machine import Machine
from repro.gasnet.network import PATH_BTE, PATH_FMA, AriesNetwork
from repro.gasnet.segment import Segment
from repro.mpisim import Win, comm_world, run_mpi
from repro.sim import EventQueue, Scheduler, current_scheduler
from repro.upcxx import operation_cx, serialization


class Measure:
    """Loop sizing and sampling shared by all microbenchmarks."""

    def __init__(self, target_s: float, samples: int):
        self.target_ns = target_s * 1e9
        self.samples = samples

    def per_call(self, step) -> float:
        """ns per call; ``step(n)`` makes ``n`` calls and returns either the
        elapsed ns or ``(elapsed ns, calls actually made)``."""

        def once(n):
            r = step(n)
            return r if isinstance(r, tuple) else (r, n)

        n = 1
        dt, _made = once(n)
        while dt < self.target_ns / 8 and n < (1 << 22):
            n *= 4
            dt, _made = once(n)
        n = max(1, int(n * self.target_ns / max(dt, 1)))
        return min(dt / made for dt, made in (once(n) for _ in range(self.samples)))


def _loop(fn):
    """``step`` for a plain call: time ``n`` back-to-back calls of ``fn``."""

    def step(n):
        t = perf_counter_ns()
        for _ in range(n):
            fn()
        return perf_counter_ns() - t

    return step


def _noop(*_args):
    return None


# ----------------------------------------------------------------------- host
def calib_ns(m: Measure) -> float:
    blob = bytes(range(256)) * 2

    def step(n):
        heap, table = [], {}
        t = perf_counter_ns()
        for i in range(n):
            heapq.heappush(heap, ((i * 7919) % 1013, i))
            if len(heap) > 64:
                heapq.heappop(heap)
            table[i & 1023] = blob[i & 255:(i & 255) + 64]
        return perf_counter_ns() - t

    return m.per_call(step)


# ------------------------------------------------------------------------ sim
def sim_layer(m: Measure) -> dict:
    out = {}
    depth = 200_000
    rng = random.Random(1)
    q = EventQueue()
    for _ in range(depth):
        q.push(rng.random(), _noop)

    def push_pop(n):
        draw = rng.random
        t = perf_counter_ns()
        for _ in range(n):
            q.push(1.0 + draw(), _noop)
            q.pop()
        return perf_counter_ns() - t

    out["sim.engine.push_pop_ns"] = m.per_call(push_pop)
    del q

    def switching(ranks):
        def step(n):
            sched = Scheduler(ranks)

            def body(_r):
                s = current_scheduler()
                for _ in range(n):
                    s.sleep(1e-6)

            t = perf_counter_ns()
            sched.run(body)
            return perf_counter_ns() - t, sched.stats()["switches"]

        return step

    out["sim.coop.switch_us"] = m.per_call(switching(2)) / 1e3
    out["sim.coop.switch_64r_us"] = m.per_call(switching(64)) / 1e3

    def charge(_r):
        s = current_scheduler()
        return m.per_call(_loop(lambda: s.charge(1e-9)))

    out["sim.coop.charge_ns"] = Scheduler(1).run(charge)[0]

    def spawn(n):
        t = perf_counter_ns()
        for _ in range(n):
            Scheduler(256).run(_noop)
        return perf_counter_ns() - t, 256 * n

    out["sim.coop.spawn_us_per_rank"] = m.per_call(spawn) / 1e3
    return out


# --------------------------------------------------------------------- gasnet
def gasnet_layer(m: Measure) -> dict:
    out = {}

    def on_rank0(fn):
        """Bare Scheduler + Conduit, as tests/test_gasnet_conduit.py builds them."""
        sched = Scheduler(2)
        conduit = Conduit(sched, Machine.for_ranks(2, 1), AriesNetwork(), segment_size=1 << 20)
        return sched.run(lambda r: fn(current_scheduler(), conduit) if r == 0 else None)[0]

    def wait(s, handle):
        handle.on_complete(lambda h: s.wake(0, h.time_done))
        while not handle.done:
            s.block("perfbench wait")

    def put(nbytes, path):
        def fn(s, conduit):
            off = conduit.segment(1).allocate(nbytes)
            data = bytes(nbytes)
            return m.per_call(_loop(lambda: wait(s, conduit.put_nb(0, 1, off, data, path))))

        return on_rank0(fn) / 1e3

    out["gasnet.conduit.put_nb_us"] = put(8, PATH_FMA)
    out["gasnet.conduit.put_nb_64k_us"] = put(64 * 1024, PATH_BTE)

    def get(s, conduit):
        off = conduit.segment(1).allocate(8)
        return m.per_call(_loop(lambda: wait(s, conduit.get_nb(0, 1, off, 8))))

    out["gasnet.conduit.get_nb_us"] = on_rank0(get) / 1e3

    def am(n):
        sched = Scheduler(2)
        conduit = Conduit(sched, Machine.for_ranks(2, 1), AriesNetwork(), segment_size=1 << 20)

        def body(r):
            s = current_scheduler()
            if r == 0:
                for i in range(n):
                    conduit.am_send(0, 1, "perfbench.am", i, nbytes=64)
            else:
                inbox = conduit.inbox(1)
                for _ in range(n):
                    while not inbox.has_due(s.now()):
                        s.block("perfbench am")
                    inbox.poll(s.now())

        t = perf_counter_ns()
        sched.run(body)
        return perf_counter_ns() - t

    out["gasnet.conduit.am_us"] = m.per_call(am) / 1e3

    seg = Segment(1 << 20, 0)
    out["gasnet.segment.alloc_free_ns"] = m.per_call(_loop(lambda: seg.deallocate(seg.allocate(64))))
    return out


# ---------------------------------------------------------------------- upcxx
def serialization_layer(m: Measure) -> dict:
    out = {}
    pack, unpack = serialization.pack, serialization.unpack
    kib = 64
    objs = {
        "scalars": ((7, 2.5, "key", True, None, 1 << 40), 1),
        "nested": (({"k": [1, 2, 3], "v": (4.5, "x")}, [(1, 2), (3, 4)], {"a": {"b": 1}}), 1),
        "bytes": (bytes(kib * 1024), kib),
        "ndarray": (np.zeros(kib * 128), kib),
    }
    for name, (obj, per) in objs.items():
        suffix = "ns" if per == 1 else "ns_per_kib"
        out[f"upcxx.serialization.pack_{name}_{suffix}"] = m.per_call(_loop(lambda: pack(obj))) / per
        if name != "ndarray":
            wire = pack(obj)
            out[f"upcxx.serialization.unpack_{name}_{suffix}"] = (
                m.per_call(_loop(lambda: unpack(wire))) / per
            )
    return out


def upcxx_layer(m: Measure) -> dict:
    out = serialization_layer(m)

    def then_fulfil():
        p = upcxx.Promise()
        p.get_future().then(_noop)
        p.finalize()

    def when_all16():
        ps = [upcxx.Promise() for _ in range(16)]
        upcxx.when_all(*[p.get_future() for p in ps])
        for p in ps:
            p.finalize()

    def futures():
        return (m.per_call(_loop(then_fulfil)), m.per_call(_loop(when_all16)))

    (out["upcxx.future.then_fulfil_ns"],
     out["upcxx.future.when_all16_ns"]) = upcxx.run_spmd(futures, 1)[0]

    def rma():
        landing = upcxx.new_array(np.uint8, 64)
        dest = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        res = None
        if upcxx.rank_me() == 0:
            payload = bytes(8)
            batch = 1000  # bounds the in-flight puts of the inject/drain pair

            def flood(timed_inject):
                def step(n):
                    n = -(-n // batch) * batch
                    total = 0
                    for _ in range(n // batch):
                        p = upcxx.Promise()
                        t0 = perf_counter_ns()
                        for _ in range(batch):
                            upcxx.rput(payload, dest, cx=operation_cx.as_promise(p))
                        t1 = perf_counter_ns()
                        p.finalize().wait()
                        total += (t1 - t0) if timed_inject else (perf_counter_ns() - t1)
                    return total, n

                return step

            res = {
                "upcxx.rma.rput_blocking_us": m.per_call(_loop(lambda: upcxx.rput(payload, dest).wait())),
                "upcxx.rma.rget_blocking_us": m.per_call(_loop(lambda: upcxx.rget(dest, count=8).wait())),
                "upcxx.rma.rput_inject_us": m.per_call(flood(True)),
                "upcxx.rma.rput_drain_us": m.per_call(flood(False)),
                "upcxx.rpc.roundtrip_us": m.per_call(_loop(lambda: upcxx.rpc(1, _noop, 7, 2.5).wait())),
            }

            def ff(n):
                t = perf_counter_ns()
                for _ in range(n):
                    upcxx.rpc_ff(1, _noop, 7, 2.5)
                upcxx.rpc(1, _noop).wait()  # the target has run them all
                return perf_counter_ns() - t

            res["upcxx.rpc.ff_us"] = m.per_call(ff)
            ad = upcxx.AtomicDomain(["fetch_add"], dtype=np.int64)
            counter = upcxx.GlobalPtr(dest.rank, dest.offset, np.int64, 1)
            res["upcxx.atomics.fetch_add_us"] = m.per_call(
                _loop(lambda: ad.fetch_add(counter, 1).wait())
            )
        upcxx.barrier()
        return res

    out.update({k: v / 1e3 for k, v in upcxx.run_spmd(rma, 2, ppn=1, segment_size=4 << 20)[0].items()})

    def barrier64():
        # every rank loops the same count: rank 0 sizes it, the rest follow
        def step(n):
            n = upcxx.broadcast(n, root=0).wait()
            t = perf_counter_ns()
            for _ in range(n):
                upcxx.barrier()
            return perf_counter_ns() - t, n

        if upcxx.rank_me() == 0:
            value = m.per_call(step)
            step(0)
            return value
        while step(None)[1]:
            pass

    out["upcxx.collectives.barrier64_us"] = (
        upcxx.run_spmd(barrier64, 64, ppn=32, segment_size=1 << 20)[0] / 1e3
    )

    def aggregator():
        store = upcxx.AggStore("+", batch_size=64, cache_capacity=16)
        upcxx.barrier()
        res = None
        if upcxx.rank_me() == 0:
            keys = [k for k in range(4096) if store.dest_of(k) == 1]
            i = 0

            def update():
                nonlocal i
                i += 1
                store.update(keys[i % len(keys)], 1)

            hot = keys[0]
            # default 0, not None: a None read-through reply reaches the
            # cache-fill callback with no argument (library defect, see CHANGES.md)
            store.read(hot, 0).wait()  # fills the cache
            res = (m.per_call(_loop(update)), m.per_call(_loop(lambda: store.read(hot, 0).wait())))
        store.quiesce()
        return res

    (out["upcxx.aggregator.update_us"],
     out["upcxx.aggregator.cached_get_us"]) = (
        v / 1e3 for v in upcxx.run_spmd(aggregator, 2, ppn=1, segment_size=4 << 20)[0]
    )

    # resident-set growth per 16-rank job when nothing collects: the
    # runtime's object graph is cyclic, so a finished job's segments stay
    # mapped until a collection runs
    runs = 2
    gc.collect()
    gc.disable()
    try:
        before = _rss_mb()
        for _ in range(runs):
            upcxx.run_spmd(upcxx.barrier, 16)
        grown = _rss_mb() - before
    finally:
        gc.enable()
        gc.collect()
    out["upcxx.runtime.uncollected_mb_per_run"] = grown / runs
    return out


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


# --------------------------------------------------------------------- mpisim
def mpisim_layer(m: Measure) -> dict:
    out = {}

    def pingpong():
        comm = comm_world()
        # the echo side learns each loop's length first, then echoes
        if comm.rank == 0:
            def step(n):
                comm.send(n, 1)
                t = perf_counter_ns()
                for _ in range(n):
                    comm.send(b"x" * 8, 1)
                    comm.recv(1)
                return perf_counter_ns() - t

            value = m.per_call(step)
            comm.send(0, 1)
            return value
        while True:
            n = comm.recv(0)
            if not n:
                return None
            for _ in range(n):
                comm.send(comm.recv(0), 0)

    out["mpisim.p2p.roundtrip_us"] = run_mpi(pingpong, 2, ppn=1)[0] / 1e3

    def put_flush():
        comm = comm_world()
        win = Win.allocate(comm, 64)
        comm.barrier()
        value = None
        if comm.rank == 0:
            payload = bytes(8)
            win.lock(1)

            def once():
                win.put(payload, target=1)
                win.flush(1)

            value = m.per_call(_loop(once))
            win.unlock(1)
        comm.barrier()
        return value

    out["mpisim.rma.put_flush_us"] = run_mpi(put_flush, 2, ppn=1, segment_size=1 << 20)[0] / 1e3

    def alltoallv():
        comm = comm_world()
        send = [b"x" * 64 if i % 4 == 0 else None for i in range(comm.size)]

        def step(n):
            n = comm.bcast(n, root=0)
            t = perf_counter_ns()
            for _ in range(n):
                comm.alltoallv(send)
            return perf_counter_ns() - t, n

        if comm.rank == 0:
            value = m.per_call(step)
            step(0)
            return value
        while step(None)[1]:
            pass

    out["mpisim.collectives.alltoallv16_us"] = (
        run_mpi(alltoallv, 16, ppn=32, segment_size=1 << 20)[0] / 1e3
    )
    return out


def run_all(target_s: float, samples: int) -> dict:
    m = Measure(target_s, samples)
    out = {"host.calib_ns": calib_ns(m)}
    for layer in (sim_layer, gasnet_layer, upcxx_layer, mpisim_layer):
        out.update(layer(m))
    return out
