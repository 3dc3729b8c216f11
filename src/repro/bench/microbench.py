"""Fig. 3 microbenchmarks: blocking put latency and flood put bandwidth.

Methodology mirrors §IV-B exactly:

- **Latency** (Fig. 3a): a loop of *blocking* puts — each put waits for the
  network-level acknowledgment before the next is issued.  UPC++ uses
  ``rput(...).wait()``; MPI uses ``MPI_Put`` + ``MPI_Win_flush`` under a
  passive-target epoch (IMB ``Unidir_put``, non-aggregate mode).
- **Bandwidth** (Fig. 3b): a flood of non-blocking puts, completion tracked
  by one promise (UPC++, with a ``progress()`` every 10 injections, as in
  the paper's code listing) or a single trailing flush (MPI, IMB aggregate
  mode).  The metric is total volume / elapsed time.

Both run between two processes on two distinct nodes (one initiator, one
passive target), as on Cori.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

import repro.upcxx as upcxx
from repro.mpisim import Win, comm_world, run_mpi
from repro.upcxx import operation_cx
from repro.util.records import BenchTable
from repro.util.units import KiB, MiB

#: transfer sizes swept in Fig. 3 (8 B ... 4 MiB)
FIG3_SIZES = [8, 32, 128, 256, 512, 1024, 2048, 4096, 8 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB, 4 * MiB]


def _flood_iters(size: int, base: int) -> int:
    """Iteration count per size: enough to reach steady state, bounded
    so huge transfers stay cheap to simulate."""
    if size <= 4 * KiB:
        return base
    if size <= 64 * KiB:
        return max(base // 2, 8)
    return max(base // 8, 6)


# ------------------------------------------------------------------- UPC++
def upcxx_put_latency(
    sizes: Sequence[int] = FIG3_SIZES,
    iters: int = 20,
    platform: str = "haswell",
) -> Dict[int, float]:
    """Mean blocking-rput round-trip time per size (seconds)."""
    out: Dict[int, float] = {}

    def body():
        me = upcxx.rank_me()
        landing = upcxx.new_array(np.uint8, max(sizes))
        dest = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        if me == 0:
            for size in sizes:
                payload = bytes(size)
                upcxx.rput(payload, dest).wait()  # warm-up
                t0 = upcxx.sim_now()
                for _ in range(iters):
                    upcxx.rput(payload, dest).wait()
                out[size] = (upcxx.sim_now() - t0) / iters
        upcxx.barrier()

    upcxx.run_spmd(body, 2, platform=platform, ppn=1)
    return out


def upcxx_flood_bw(
    sizes: Sequence[int] = FIG3_SIZES,
    iters: int = 64,
    platform: str = "haswell",
) -> Dict[int, float]:
    """Flood put bandwidth per size (bytes/second), promise-tracked."""
    out: Dict[int, float] = {}

    def body():
        me = upcxx.rank_me()
        landing = upcxx.new_array(np.uint8, max(sizes))
        dest = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        if me == 0:
            for size in sizes:
                n = _flood_iters(size, iters)
                payload = bytes(size)
                upcxx.rput(payload, dest).wait()  # warm-up
                t0 = upcxx.sim_now()
                p = upcxx.Promise()
                k = n
                while k:
                    k -= 1
                    upcxx.rput(payload, dest, cx=operation_cx.as_promise(p))
                    if not (k % 10):
                        upcxx.progress()  # occasional progress (paper listing)
                p.finalize().wait()
                out[size] = size * n / (upcxx.sim_now() - t0)
        upcxx.barrier()

    upcxx.run_spmd(body, 2, platform=platform, ppn=1)
    return out


# --------------------------------------------------------------------- MPI
def mpi_put_latency(sizes: Sequence[int] = FIG3_SIZES, iters: int = 20, platform: str = "haswell") -> Dict[int, float]:
    """Mean blocking MPI_Put+flush time per size (IMB non-aggregate)."""
    out: Dict[int, float] = {}

    def body():
        comm = comm_world()
        win = Win.allocate(comm, max(sizes))
        comm.barrier()
        if comm.rank == 0:
            win.lock(1)
            for size in sizes:
                payload = bytes(size)
                win.put(payload, target=1)
                win.flush(1)  # warm-up
                t0 = comm.rt.sched.now()
                for _ in range(iters):
                    win.put(payload, target=1)
                    win.flush(1)
                out[size] = (comm.rt.sched.now() - t0) / iters
            win.unlock(1)
        comm.barrier()

    run_mpi(body, 2, platform=platform, ppn=1)
    return out


def mpi_flood_bw(sizes: Sequence[int] = FIG3_SIZES, iters: int = 64, platform: str = "haswell") -> Dict[int, float]:
    """Flood MPI_Put bandwidth per size (IMB aggregate: one flush at end)."""
    out: Dict[int, float] = {}

    def body():
        comm = comm_world()
        win = Win.allocate(comm, max(sizes))
        comm.barrier()
        if comm.rank == 0:
            win.lock(1)
            for size in sizes:
                n = _flood_iters(size, iters)
                payload = bytes(size)
                win.put(payload, target=1)
                win.flush(1)  # warm-up
                t0 = comm.rt.sched.now()
                for _ in range(n):
                    win.put(payload, target=1)
                win.flush(1)
                out[size] = size * n / (comm.rt.sched.now() - t0)
            win.unlock(1)
        comm.barrier()

    run_mpi(body, 2, platform=platform, ppn=1)
    return out


# ----------------------------------------------------- companion microbenches
def upcxx_get_latency(sizes: Sequence[int] = FIG3_SIZES, iters: int = 20, platform: str = "haswell") -> Dict[int, float]:
    """Mean blocking-rget round-trip time per size (companion to Fig. 3a;
    gets pay the request leg before data can flow back)."""
    out: Dict[int, float] = {}

    def body():
        me = upcxx.rank_me()
        landing = upcxx.new_array(np.uint8, max(sizes))
        src = upcxx.broadcast(landing, root=1).wait()
        upcxx.barrier()
        if me == 0:
            for size in sizes:
                ptr = upcxx.GlobalPtr(src.rank, src.offset, src.dtype, size)
                upcxx.rget(ptr).wait()  # warm-up
                t0 = upcxx.sim_now()
                for _ in range(iters):
                    upcxx.rget(ptr).wait()
                out[size] = (upcxx.sim_now() - t0) / iters
        upcxx.barrier()

    upcxx.run_spmd(body, 2, platform=platform, ppn=1)
    return out


def upcxx_rpc_latency(payloads: Sequence[int], iters: int = 20, platform: str = "haswell") -> Dict[int, float]:
    """Round-trip time of a returning RPC per payload size (ships a view)."""
    out: Dict[int, float] = {}

    def body():
        me = upcxx.rank_me()
        upcxx.barrier()
        if me == 0:
            for size in payloads:
                data = np.zeros(max(1, size // 8))
                v = upcxx.make_view(data)
                upcxx.rpc(1, lambda x: None, v).wait()  # warm-up
                t0 = upcxx.sim_now()
                for _ in range(iters):
                    upcxx.rpc(1, lambda x: None, upcxx.make_view(data)).wait()
                out[size] = (upcxx.sim_now() - t0) / iters
        # rank 1 blocks here, which spins user progress: it stays
        # attentive and executes rank 0's RPCs while waiting
        upcxx.barrier()

    upcxx.run_spmd(body, 2, platform=platform, ppn=1)
    return out


def run_micro_companions(sizes: Sequence[int] = None, iters: int = 20) -> BenchTable:
    """Latency of the three one-sided/remote primitives side by side."""
    sizes = sizes or [8, 512, 4096, 65536]
    table = BenchTable(
        title="Companion microbench: blocking latency of rput vs rget vs rpc",
        x_name="size",
        y_name="latency (us)",
    )
    put = upcxx_put_latency(sizes, iters)
    get = upcxx_get_latency(sizes, iters)
    rpc = upcxx_rpc_latency(sizes, iters)
    s_put = table.new_series("rput")
    s_get = table.new_series("rget")
    s_rpc = table.new_series("rpc (view payload)")
    for s in sizes:
        s_put.add(s, put[s] * 1e6)
        s_get.add(s, get[s] * 1e6)
        s_rpc.add(s, rpc[s] * 1e6)
    return table


# ---------------------------------------------------------------- figures
def run_fig3a(sizes: Sequence[int] = FIG3_SIZES, iters: int = 20) -> BenchTable:
    """Fig. 3a: round-trip put latency, UPC++ vs MPI RMA (lower is better)."""
    table = BenchTable(
        title="Fig 3a: Round-trip Put Latency on simulated Cori Haswell",
        x_name="size",
        y_name="latency (us)",
    )
    u = upcxx_put_latency(sizes, iters)
    m = mpi_put_latency(sizes, iters)
    su = table.new_series("UPC++ rput")
    sm = table.new_series("MPI RMA Put")
    for size in sizes:
        su.add(size, u[size] * 1e6)
        sm.add(size, m[size] * 1e6)
    return table


def run_fig3b(sizes: Sequence[int] = FIG3_SIZES, iters: int = 64) -> BenchTable:
    """Fig. 3b: flood put bandwidth, UPC++ vs MPI RMA (higher is better)."""
    table = BenchTable(
        title="Fig 3b: Flood Put Bandwidth on simulated Cori Haswell",
        x_name="size",
        y_name="bandwidth (GiB/s)",
    )
    u = upcxx_flood_bw(sizes, iters)
    m = mpi_flood_bw(sizes, iters)
    su = table.new_series("UPC++ rput")
    sm = table.new_series("MPI RMA Put")
    giB = float(1 << 30)
    for size in sizes:
        su.add(size, u[size] / giB)
        sm.add(size, m[size] / giB)
    return table

