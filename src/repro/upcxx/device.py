"""Memory kinds: GPU device segments and the generalized ``upcxx::copy``.

The paper's §VI names this as the immediate future work: "enhance UPC++'s
one-sided communication to express transfers to and from other memories
(such as that of GPUs) with extensions to the existing abstractions."
This module implements that extension the way UPC++ later shipped it
(memory kinds):

- :class:`Device` — a per-rank GPU with its own registered segment;
  ``device.allocate(dtype, n)`` returns a :class:`GlobalPtr` of kind
  ``"device"`` (same pointer algebra, no host dereference);
- :func:`copy` — one-sided copy between *any* two global pointers (or a
  host array endpoint), regardless of owner or memory kind.  Host↔host
  copies ride the NIC; transfers touching device memory additionally cross
  the owning rank's PCIe-class staging link, which serializes transfers
  and adds latency — so the simulated cost structure matches a
  GPUDirect-less interconnect.

Like every UPC++ operation, ``copy`` is asynchronous and completes through
the usual completion objects.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.upcxx.completion import Completion, resolve
from repro.upcxx.errors import GlobalPtrError, UpcxxError
from repro.upcxx.future import Future
from repro.upcxx.global_ptr import GlobalPtr, check_rank
from repro.upcxx.runtime import CompQItem, current_runtime
from repro.gasnet.network import PATH_BTE, PATH_FMA

#: default device segment size
_DEFAULT_DEVICE_SEGMENT = 64 * 1024 * 1024


class Device:
    """One rank's GPU (``upcxx::cuda_device`` + ``device_allocator``)."""

    def __init__(self, segment_size: int = _DEFAULT_DEVICE_SEGMENT):
        rt = current_runtime()
        self.rt = rt
        self.rank = rt.rank
        self.segment = rt.conduit.ensure_device_segment(rt.rank, segment_size)

    def allocate(self, dtype, count: int) -> GlobalPtr:
        """Allocate a typed array in this rank's device segment."""
        dt = np.dtype(dtype)
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self.rt.charge_sw(self.rt.costs.alloc)
        off = self.segment.allocate(dt.itemsize * count)
        return GlobalPtr(self.rank, off, dt, count, kind="device")

    def deallocate(self, gptr: GlobalPtr) -> None:
        if gptr.kind != "device" or gptr.rank != self.rank:
            raise UpcxxError("can only deallocate this rank's own device memory")
        self.rt.charge_sw(self.rt.costs.alloc)
        self.segment.deallocate(gptr.offset)

    def usage(self) -> dict:
        return {"size": self.segment.size, "in_use": self.segment.bytes_in_use}


def _common_bytes(src, dst: GlobalPtr, count: Optional[int]):
    """Validate endpoints; returns (nbytes, count_elems)."""
    if isinstance(src, GlobalPtr):
        n = min(src.count, dst.count) if count is None else count
        if n <= 0 or n > src.count or n > dst.count:
            raise GlobalPtrError(f"copy of {n} elements outside operand spans")
        if src.dtype != dst.dtype:
            raise GlobalPtrError(f"copy dtype mismatch: {src.dtype} vs {dst.dtype}")
        return n * src.itemsize, n
    arr = np.ascontiguousarray(src)
    n = len(arr) if count is None else count
    if n <= 0 or n > len(arr):
        raise GlobalPtrError(f"copy of {n} elements outside source array of {len(arr)}")
    if n > dst.count:
        raise GlobalPtrError(f"copy of {n} elements exceeds destination span {dst.count}")
    if arr.dtype != dst.dtype:
        raise GlobalPtrError(f"copy dtype mismatch: {arr.dtype} vs {dst.dtype}")
    return n * dst.itemsize, n


def copy(
    src: Union[GlobalPtr, np.ndarray],
    dst: GlobalPtr,
    count: Optional[int] = None,
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Generalized one-sided copy (``upcxx::copy``).

    ``src`` may be a global pointer of any kind/owner or a local host
    array; ``dst`` is a global pointer of any kind/owner.  Completion is
    local operation completion (data committed at the destination and
    acknowledged).  Third-party copies (neither endpoint local) route
    through the initiator, like the reference implementation.
    """
    rt = current_runtime()
    me = rt.rank
    net = rt.world.network
    nbytes, n = _common_bytes(src, dst, count)
    for gptr in (src, dst):
        if isinstance(gptr, GlobalPtr):
            check_rank(gptr, rt.world.n_ranks, "copy")
    rt.charge_sw(rt.costs.rma_inject)
    src_is_local_host = (
        not isinstance(src, GlobalPtr) or (src.rank == rt.rank and src.kind == "host")
    )
    if src_is_local_host and dst.rank == rt.rank and dst.kind == "host":
        rt.charge_copy(nbytes)  # plain local memcpy
    promise, fut = resolve(cx, rt)
    path = PATH_FMA if nbytes < rt.costs.bte_threshold else PATH_BTE

    def finish_at(t: float):
        """Complete the operation at simulated time t (network context)."""

        def fulfill():
            if promise is not None:
                promise.fulfill_anonymous(1)

        def cb():
            rt.gasnet_completed(
                CompQItem(rt.cpu.t(rt.costs.completion), fulfill, "copy", nbytes), t
            )
            rt.sched.wake(me, t)

        rt.sched.post_at(t, cb)

    def store_phase(data: bytes, t_ready: float):
        """Write ``data`` into dst starting no earlier than ``t_ready``."""
        seg = rt.conduit.segment_of(dst.rank, dst.kind)
        if dst.rank == me:
            if dst.kind == "device":
                done = rt.conduit.pcie_transfer(me, nbytes, t_ready)
                rt.sched.post_at(done, lambda: (seg.write(dst.offset, data), finish_at(done))[1])
            else:
                def commit():
                    seg.write(dst.offset, data)
                    finish_at(t_ready)

                rt.sched.post_at(t_ready, commit)
            return

        # remote destination: wire put (from the initiator), then an extra
        # PCIe hop at the target for device memory
        rt.sched.post_at(t_ready, lambda: _raw_put(rt, me, dst, data, path, t_ready, finish_at))

    # ---------------------------------------------------------- fetch phase
    now = rt.sched.now()
    if isinstance(src, np.ndarray) or not isinstance(src, GlobalPtr):
        data = np.ascontiguousarray(src).tobytes()[:nbytes]
        store_phase(data, now)
        return fut

    src_seg_kind = src.kind
    if src.rank == me:
        data = rt.conduit.segment_of(me, src_seg_kind).read(src.offset, nbytes)
        if src_seg_kind == "device":
            t_ready = rt.conduit.pcie_transfer(me, nbytes, now)
        else:
            t_ready = now
        store_phase(data, t_ready)
        return fut

    # remote source: one-sided get, plus a PCIe hop at the source for
    # device memory (staged through the source's host memory)
    handle = _raw_get(rt, me, src, nbytes, path)

    def on_got(h):
        t = h.time_done
        if src_seg_kind == "device":
            t = rt.conduit.pcie_transfer(src.rank, nbytes, t)
        store_phase(h.data, t)

    handle.on_complete(on_got)
    return fut


def _raw_put(rt, me: int, dst: GlobalPtr, data: bytes, path: str, start: float, finish_at) -> None:
    """Wire put into the destination's segment of the right kind.

    Runs in network context: all times are explicit (no rank-clock reads).
    """
    conduit = rt.conduit
    seg = conduit.segment_of(dst.rank, dst.kind)
    nbytes = len(data)
    # reuse the conduit's wire machinery but commit into the chosen segment
    _, arrival = conduit._inject(me, dst.rank, nbytes, path, start)
    same = conduit.machine.same_node(me, dst.rank)
    ack_latency = conduit.network.latency(same)

    def commit():
        t_commit = arrival
        if dst.kind == "device":
            t_commit = conduit.pcie_transfer(dst.rank, nbytes, arrival)

        def write_and_ack():
            seg.write(dst.offset, data)
            finish_at(t_commit + ack_latency)

        rt.sched.post_at(t_commit, write_and_ack)

    rt.sched.post_at(arrival, commit)


def _raw_get(rt, me: int, src: GlobalPtr, nbytes: int, path: str):
    """Wire get from the source's segment of the right kind."""
    from repro.gasnet.handle import Handle

    conduit = rt.conduit
    seg = conduit.segment_of(src.rank, src.kind)
    handle = Handle(f"copy-get {me}<-{src.rank} {nbytes}B")
    _, req_arrival = conduit._inject(me, src.rank, conduit.network.header_bytes, PATH_FMA, rt.sched.now())
    src_ep = conduit.endpoints[src.rank]
    same = conduit.machine.same_node(me, src.rank)

    def service():
        data = seg.read(src.offset, nbytes)
        begin = max(req_arrival, src_ep.nic_free_at)
        occ = conduit.network.occupancy(nbytes, path, same)
        src_ep.nic_free_at = begin + occ
        back = begin + occ + conduit.network.latency(same)
        rt.sched.post_at(back, lambda: handle.complete(back, data=data))

    rt.sched.post_at(req_arrival, service)
    return handle
