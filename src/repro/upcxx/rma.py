"""One-sided RMA: ``rput`` and ``rget``.

Both are asynchronous by default (paper principle #1) and progress through
the §III queues: the injection call charges the software injection cost,
enqueues the operation on defQ, and internal progress hands it to the
conduit (actQ).  When the conduit acknowledges remote completion, the next
internal progress promotes the operation to compQ, and user progress
fulfills its promise — running any chained ``.then`` callbacks.  One
:class:`RmaOp` record, built at the call and dropped once user progress has
run it, is the operation in every one of those states.

``rput`` optionally supports remote completion (``remote_cx.as_rpc``): the
callback runs at the *target* after the bytes land, without a separate
round trip.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gasnet.handle import Transfer
from repro.gasnet.network import PATH_BTE, PATH_FMA
from repro.upcxx.completion import Completion, resolve
from repro.upcxx.errors import GlobalPtrError
from repro.upcxx.future import Future
from repro.upcxx.global_ptr import GlobalPtr, check_host_target
from repro.upcxx.runtime import CompQItem, current_runtime


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

    and user progress drops it once :meth:`fn` has run.  Metrics and spans
    read every stamp they need (``t_api``, ``t_enq``, ``t_active``,
    ``t_staged``, ``sid``, the conduit's ``wire`` junctions) from these
    fields.

    An atomic, a VIS operation and a ``copy`` are subclasses
    (``repro.upcxx.atomics``, ``vis``, ``device``) that replace
    :meth:`inject`, and :meth:`value` where their future carries one.
    """

    __slots__ = (
        "rt", "promise", "opid", "dtype", "scalar", "remote_rpc",
        "cost", "sid", "t_api", "t_enq", "t_active", "t_staged",
    )

    #: an RMA-class operation is never a child of another (cf. an rpc reply)
    parent = None
    #: an RMA completion never passes through the inbox
    t_polled = None

    def __init__(self, rt, kind, dst, dst_off, nbytes, promise, sid=None, t_api=None,
                 payload=None, dtype=None, scalar=False, remote_rpc=None):
        # one frame sets every slot the conduit and the runtime read before
        # injection (Transfer.__init__ is not called: this is the hot path)
        self.rt = rt
        self.conduit = rt.conduit
        self.src = rt.rank
        self.kind = kind
        self.dst = dst
        self.dst_off = dst_off
        self.nbytes = nbytes
        self.path = PATH_FMA if nbytes < rt.costs.bte_threshold else PATH_BTE
        self.promise = promise
        self.sid = sid
        self.t_api = t_api
        self.payload = payload
        self.dtype = dtype
        self.scalar = scalar
        self.remote_rpc = remote_rpc
        self.cost = rt._c_completion
        self.occ_scale = 1.0
        self.done = False
        self.time_done = self._callbacks = self.data = self.seg = self.wire = None

    def _activate(self) -> float:
        """defQ -> actQ: enter actQ; returns now."""
        rt = self.rt
        self.opid = rt.next_op_id()
        rt.actQ[self.opid] = self
        self.t_active = now = rt.sched.now()
        return now

    def inject(self) -> None:
        """defQ -> actQ (internal progress): hand the operation to the conduit."""
        now = self._activate()
        if self.kind == "rget":
            self.conduit.get(self, now)
            return
        self.conduit.put(self, now)

    def remote_cx(self) -> None:
        """Network context at the target, the bytes written: stage the
        ``remote_cx::as_rpc`` on the target's compQ and wake it, as if it
        had been received there.  It keeps the put's sid, so its spans
        thread onto the put."""
        fn, args = self.remote_rpc
        dst, t = self.dst, self.t_commit
        target = self.rt.world.runtimes[dst]
        target.gasnet_completed(CompQItem(target._c_rpc_dispatch, lambda: fn(*args),
                                          "remote_cx_rpc", self.nbytes, self.t_active, sid=self.sid), t)
        self.rt.sched.wake(dst, t)

    def complete(self, time: float, data=None) -> None:
        """Network context at the initiator: stage for promotion to compQ."""
        Transfer.complete(self, time, data)
        self.t_staged = time
        rt = self.rt
        rt._gasnet_done.append(self)
        rt.sched.wake(self.src, time)

    def fn(self) -> None:
        """The compQ body (user progress): fulfil the promise, with
        :meth:`value` unless ``dtype`` is None (no value to carry)."""
        self.rt.actQ.pop(self.opid, None)
        promise = self.promise
        if promise is None:
            return
        if self.dtype is None:
            promise.fulfill_anonymous(1)
        else:
            promise.fulfill_result(self.value())

    def value(self):
        """What an ``rget``'s future carries: the fetched elements."""
        arr = np.frombuffer(self.data, dtype=self.dtype)
        return arr[0].item() if self.scalar else arr.copy()

    def __str__(self) -> str:
        return str((self.kind, self.nbytes, self.dst))


def _issue(rt, cls, kind: str, gptr: GlobalPtr, nbytes: int, cx: Optional[Completion],
           charge: float, payload=None, dtype=None, scalar: bool = False,
           remote_rpc=None, what: Optional[str] = None):
    """The injection call ``rput``, ``rget`` and an atomic share: check the
    pointer (``what`` names the operation in the error, default ``kind``),
    open the span, charge the software injection cost ``charge``, resolve
    the completion, build the ``cls`` record with the rest of the
    arguments, defer it and run internal progress.  Returns the future."""
    check_host_target(gptr, rt.world.n_ranks, what or kind)
    sid = t_api = None
    if rt.spans is not None:
        sid, t_api = rt.next_span_sid(), rt.now()
    rt.sched.charge(charge)
    promise, fut = resolve(cx, rt)
    rt.defer(cls(rt, kind, gptr.rank, gptr.offset, nbytes, promise, sid, t_api,
                 payload, dtype, scalar, remote_rpc))
    rt.internal_progress()
    return fut


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
    # a put completes without a value
    fut = _issue(rt, RmaOp, "rput", dest, nbytes, cx, rt._c_rma_inject, data, None, False,
                 None if cx is None else cx.remote_rpc)
    rt.n_rputs += 1
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
    # a user-supplied promise may track many operations, so it is fulfilled
    # anonymously (no value); only the default as_future carries the data
    dtype = None if cx is not None and cx.kind == "promise" else src.dtype
    return _issue(rt, RmaOp, "rget", src, n * src.itemsize, cx, rt._c_rma_inject, None, dtype,
                  n == 1)


def rput_then_rpc(src, dest: GlobalPtr, fn, *args) -> None:
    """Convenience for ``rput(..., remote_cx.as_rpc(fn, *args))``.

    The data lands at ``dest`` and then ``fn(*args)`` executes on the
    owning rank — one network traversal, no initiator-side round trip.
    """
    from repro.upcxx.completion import remote_cx

    rput(src, dest, cx=remote_cx.as_rpc(fn, *args))
