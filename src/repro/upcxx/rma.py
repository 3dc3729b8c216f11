"""One-sided RMA: ``rput`` and ``rget``.

Both are asynchronous by default (paper principle #1) and progress through
the §III queues: the injection call charges the software injection cost,
enqueues the operation on defQ, and internal progress hands it to the
conduit (actQ).  When the conduit acknowledges remote completion, the next
internal progress promotes the operation to compQ, and user progress
fulfills its promise — running any chained ``.then`` callbacks.  One
pooled :class:`RmaOp` record is the operation in every one of those states.

``rput`` optionally supports remote completion (``remote_cx.as_rpc``): the
callback runs at the *target* after the bytes land, without a separate
round trip.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.gasnet.handle import Transfer
from repro.gasnet.network import PATH_BTE, PATH_FMA
from repro.upcxx import serialization
from repro.upcxx.completion import Completion, resolve
from repro.upcxx.errors import GlobalPtrError
from repro.upcxx.future import Future
from repro.upcxx.global_ptr import GlobalPtr, check_host_target
from repro.upcxx.runtime import current_runtime


def _as_bytes(src, dest: GlobalPtr) -> bytes:
    """Coerce the source operand of an rput into raw bytes."""
    if isinstance(src, (bytes, bytearray, memoryview)):
        return bytes(src)
    if isinstance(src, np.ndarray):
        return np.ascontiguousarray(src).tobytes()
    if isinstance(src, str):
        return src.encode("utf-8")
    if np.isscalar(src):
        return np.asarray(src, dtype=dest.dtype).tobytes()
    raise TypeError(f"cannot rput object of type {type(src).__name__}")


class RmaOp(Transfer):
    """One ``rput``/``rget`` from the API call to fulfilment, in one object.

    The conduit's :class:`~repro.gasnet.handle.Transfer` carries the wire
    half; this adds the runtime half, so the same record is in turn

    - the **defQ** entry (``kind``/``nbytes``/``t_enq`` tags, :meth:`inject`),
    - the **actQ** entry (``str()`` gives the description diagnostics print),
    - the callable of both conduit events,
    - the staged / **compQ** item (:meth:`complete` stages it; ``cost``,
      ``t_active``/``t_staged``/``sid``/``t_polled`` and :meth:`fn` are
      what :class:`~repro.upcxx.runtime.CompQItem` offers user progress),

    and user progress hands it back to its runtime's free list once
    :meth:`fn` has run.  Metrics, spans, telemetry and the flight recorder
    read every stamp they need (``t_api``, ``t_enq``, ``t_active``,
    ``t_staged``, ``sid``) from these fields.  Nobody outside the runtime
    ever holds the record, which is what makes recycling it safe.
    """

    __slots__ = (
        "rt", "promise", "opid", "dtype", "scalar",
        "cost", "t_api", "t_enq", "t_active", "t_staged", "t_polled",
    )

    #: free-list bound per runtime (a flood's in-flight depth can be far
    #: deeper; the excess is simply garbage)
    POOL_MAX = 256

    def __init__(self, rt):
        Transfer.__init__(self, rt.conduit, rt.rank)
        self.rt = rt
        self.cost = rt._c_completion
        #: an RMA completion never passes through the inbox
        self.t_polled = None

    def inject(self) -> None:
        """defQ -> actQ (internal progress): hand the operation to the conduit."""
        rt = self.rt
        self.opid = rt.next_op_id()
        rt.actQ[self.opid] = self
        self.t_active = now = rt.sched.now()
        sid = self.sid
        if sid is not None:
            # API call + injection charge + defQ dwell, up to NIC handoff
            rt.spans.record(self.t_api, now, self.src, sid, "inject_sw", self.kind, self.nbytes)
        if self.kind == "rget":
            self.conduit.get(self, now)
            return
        # remote_cx work crosses the wire as (fn, args, t_active) data — the
        # conduit hands it to the target's runtime via the World's deliverer
        rrpc = self.remote_rpc
        if rrpc is not None:
            self.remote_rpc = (rrpc[0], rrpc[1], now)
        self.conduit.put(self, now)

    def complete(self, time: float, data=None) -> None:
        """Network context at the initiator: stage for promotion to compQ."""
        Transfer.complete(self, time, data)
        self.t_staged = time
        rt = self.rt
        rt._gasnet_done.append(self)
        rt.sched.wake(self.src, time)

    def fn(self) -> None:
        """The compQ body (user progress): fulfil the promise."""
        self.rt.actQ.pop(self.opid, None)
        promise = self.promise
        if promise is None:
            return
        dtype = self.dtype
        if dtype is None:
            promise.fulfill_anonymous(1)
            return
        arr = np.frombuffer(self.data, dtype=dtype)
        promise.fulfill_result(arr[0].item() if self.scalar else arr.copy())

    def release(self) -> None:
        """Executed: drop what the operation referenced and rejoin the pool."""
        self.done = False
        self.promise = self.data = self.remote_rpc = None
        pool = self.rt._op_pool
        if len(pool) < self.POOL_MAX:
            pool.append(self)

    def __str__(self) -> str:
        return str((self.kind, self.nbytes, self.dst))


def _issue(rt, op_kind: str, gptr: GlobalPtr, nbytes: int, cx: Optional[Completion]):
    """The part of an injection call ``rput`` and ``rget`` share: open the
    span, charge the software injection cost, resolve the completion and
    fill in a record.  Returns ``(record, future)``; the caller adds what
    is specific to it and calls ``rt.defer``."""
    check_host_target(gptr, rt.world.n_ranks, op_kind)
    sid = None
    t_api = 0.0
    if rt.spans is not None:
        sid = rt.next_span_sid()
        t_api = rt.now()
    rt.sched.charge(rt._c_rma_inject)
    promise, fut = resolve(cx, rt)
    pool = rt._op_pool
    op = pool.pop() if pool else RmaOp(rt)
    op.kind = op_kind
    op.dst = gptr.rank
    op.dst_off = gptr.offset
    op.nbytes = nbytes
    op.path = PATH_FMA if nbytes < rt.costs.bte_threshold else PATH_BTE
    op.promise = promise
    op.sid = sid
    op.t_api = t_api
    return op, fut


def rput(
    src,
    dest: GlobalPtr,
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Non-blocking one-sided put of ``src`` into global memory at ``dest``.

    ``src`` may be bytes, a numpy array, a str, or a scalar (converted to
    ``dest.dtype``).  Returns a future unless a promise/remote-only
    completion was requested.
    """
    rt = current_runtime()
    data = _as_bytes(src, dest)
    nbytes = len(data)
    if nbytes > dest.nbytes:
        raise GlobalPtrError(f"rput of {nbytes}B exceeds destination span of {dest.nbytes}B")
    op, fut = _issue(rt, "rput", dest, nbytes, cx)
    rt.n_rputs += 1
    op.payload = data
    op.dtype = None  # a put completes without a value
    if cx is not None:
        op.remote_rpc = cx.remote_rpc
    rt.defer(op)
    rt.internal_progress()
    return fut


def rget(
    src: GlobalPtr,
    count: Optional[int] = None,
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Non-blocking one-sided get from global memory.

    Fetches ``count`` elements (default: the pointer's full span).  The
    future's value is a numpy array of ``src.dtype`` (or the scalar itself
    when ``count == 1`` and the pointer is scalar-typed).
    """
    rt = current_runtime()
    n = src.count if count is None else count
    # n == 0 is legal (a zero-length get completes as a no-op transfer)
    if n < 0 or n > src.count:
        raise GlobalPtrError(f"rget of {n} elements outside span of {src.count}")
    op, fut = _issue(rt, "rget", src, n * src.itemsize, cx)
    rt.n_rgets += 1
    # a user-supplied promise may track many operations, so it is fulfilled
    # anonymously (no value); only the default as_future carries the data
    op.dtype = None if cx is not None and cx.kind == "promise" else src.dtype
    op.scalar = n == 1
    rt.defer(op)
    rt.internal_progress()
    return fut


def rput_then_rpc(src, dest: GlobalPtr, fn, *args) -> None:
    """Convenience for ``rput(..., remote_cx.as_rpc(fn, *args))``.

    The data lands at ``dest`` and then ``fn(*args)`` executes on the
    owning rank — one network traversal, no initiator-side round trip.
    """
    from repro.upcxx.completion import remote_cx

    rput(src, dest, cx=remote_cx.as_rpc(fn, *args))
