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

Like every UPC++ operation, ``copy`` is asynchronous, moves through defQ,
actQ and compQ as one record (:class:`CopyOp`) and completes through the
usual completion objects.  Its wire legs are the conduit's put and get,
so they go through the reliable-delivery layer under a fault plan.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.gasnet.handle import ATOMIC_APPLY, PUT_COMMIT, Transfer
from repro.upcxx.completion import Completion, resolve
from repro.upcxx.errors import GlobalPtrError, UpcxxError
from repro.upcxx.future import Future
from repro.upcxx.global_ptr import GlobalPtr, check_rank
from repro.upcxx.rma import RmaOp
from repro.upcxx.runtime import current_runtime

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


#: a :class:`CopyOp` phase after ATOMIC_APPLY: a put leg's frame bound for
#: device memory is at the target's host side and crosses its PCIe link
#: before ``PUT_COMMIT`` lands it
PCIE_IN = ATOMIC_APPLY + 1


class CopyOp(RmaOp):
    """One ``copy``, from the API call to fulfilment: an
    :class:`~repro.upcxx.rma.RmaOp` whose wire legs are the conduit's own
    ``get`` (a remote ``source``) and ``put`` (a remote ``target``).  Device
    memory adds a PCIe staging hop on its owner's link where it is touched:
    at the source once its bytes are in hand (after a get leg's reply
    lands), at the target before they land.  A local target is written by
    the record's own ``PUT_COMMIT`` event."""

    __slots__ = ("source", "target")
    #: a get leg's completion stages the bytes over the source rank's
    #: PCIe link, a third rank's state: every event of a copy waits for
    #: the strict gate
    LOOKAHEAD = False

    def __init__(self, rt, source, target, nbytes, promise, payload):
        # a copy completes without a value
        RmaOp.__init__(self, rt, "copy", None, None, nbytes, promise, payload=payload)
        self.source = source
        self.target = target

    def inject(self) -> None:
        """defQ -> actQ (internal progress): start the get leg, or go
        straight on with the bytes read at the API call."""
        now = self._activate()
        if self.payload is not None:
            self._send_on(self.payload, now)
            return
        src = self.source
        conduit = self.conduit
        self.dst, self.dst_off = src.rank, src.offset
        self.seg = conduit.segment_of(src.rank, src.kind)
        conduit.get(self, now)

    def complete(self, time: float, data=None) -> None:
        """Network context at the initiator: the get leg's reply has landed
        (on to the target), or the copy is done (stage it)."""
        got = self.data
        if got is None:
            RmaOp.complete(self, time)
            return
        self.data = None
        self._send_on(got, time)

    def _send_on(self, data: bytes, t: float) -> None:
        """The source's bytes are in hand at ``t``: take them to the target."""
        conduit = self.conduit
        src, dst = self.source, self.target
        if src is not None and src.kind == "device":
            t = conduit.pcie_transfer(src.rank, self.nbytes, t)
        self.dst, self.dst_off, self.payload = dst.rank, dst.offset, data
        self.seg = conduit.segment_of(dst.rank, dst.kind)
        if dst.rank != self.src:
            conduit.put(self, t)
            if dst.kind == "device":
                # the commit event ``put`` posted reserves the PCIe link first
                self.phase = PCIE_IN
            return
        if dst.kind == "device":
            t = conduit.pcie_transfer(dst.rank, self.nbytes, t)
        self.phase = PUT_COMMIT
        self.t_commit = self.t_ack = t
        conduit.sched.post_at(t, self)

    def __call__(self) -> None:
        """The event body: :data:`PCIE_IN` here, every other phase that of
        a :class:`~repro.gasnet.handle.Transfer`."""
        if self.phase != PCIE_IN:
            Transfer.__call__(self)
            return
        conduit = self.conduit
        t = self.t_commit = conduit.pcie_transfer(self.dst, self.nbytes, self.t_commit)
        if self.t_ack is not None:
            # the ack leaves once the bytes have landed
            lat = conduit.network.latency(conduit.machine.same_node(self.src, self.dst))
            self.t_ack = max(self.t_ack, t + lat)
        self.phase = PUT_COMMIT
        conduit.sched.post_at(t, self)


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
    nbytes, n = _common_bytes(src, dst, count)
    for gptr in (src, dst):
        if isinstance(gptr, GlobalPtr):
            check_rank(gptr, rt.world.n_ranks, "copy")
    rt.charge_sw(rt.costs.rma_inject)
    src_is_local_host = (
        not isinstance(src, GlobalPtr) or (src.rank == me and src.kind == "host")
    )
    if src_is_local_host and dst.rank == me and dst.kind == "host":
        rt.charge_copy(nbytes)  # plain local memcpy
    promise, fut = resolve(cx, rt)
    if not isinstance(src, GlobalPtr):
        source, payload = None, np.ascontiguousarray(src).tobytes()[:nbytes]
    elif src.rank == me:  # a local source is read at the call, like an array
        source, payload = src, rt.conduit.segment_of(me, src.kind).read(src.offset, nbytes)
    else:
        source, payload = src, None
    rt.defer(CopyOp(rt, source, dst, nbytes, promise, payload))
    rt.internal_progress()
    return fut
