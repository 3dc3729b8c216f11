"""Remote atomics (``upcxx::atomic_domain``).

An :class:`AtomicDomain` is constructed collectively with the set of
operations it will perform; its operations target single elements in
shared segments through global pointers.  On the simulated Aries NIC the
update is **hardware-offloaded**: it applies at the target at wire-arrival
time with no target CPU involvement (paper §II — "on network hardware with
appropriate capabilities ... remote atomic updates can also be offloaded,
improving latency and scalability").

All operations are asynchronous and future-returning; fetching ops yield
the value *before* the update (like ``fetch_add``), ``load`` yields the
current value, ``compare_exchange`` yields the previous value.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.upcxx.completion import Completion, resolve
from repro.upcxx.errors import UpcxxError
from repro.upcxx.future import Future
from repro.upcxx.global_ptr import GlobalPtr, check_host_target
from repro.upcxx.runtime import CompQItem, current_runtime

#: domain op name -> (conduit op, fetches?)
_OP_TABLE = {
    "load": ("get", True),
    "store": ("put", False),
    "add": ("add", False),
    "fetch_add": ("fetch_add", True),
    "min": ("min", False),
    "max": ("max", False),
    "bit_and": ("bit_and", False),
    "bit_or": ("bit_or", False),
    "bit_xor": ("bit_xor", False),
    "compare_exchange": ("cas", True),
}


class AtomicDomain:
    """A set of atomic operations over one element dtype."""

    def __init__(self, ops: Iterable[str], dtype=np.int64, team=None):
        rt = current_runtime()
        self.rt = rt
        self.dtype = np.dtype(dtype)
        self.ops = frozenset(ops)
        unknown = self.ops - set(_OP_TABLE)
        if unknown:
            raise UpcxxError(f"unsupported atomic ops: {sorted(unknown)}")
        self.team = team if team is not None else rt.team_world()

    def _issue(self, op: str, gptr: GlobalPtr, operands: tuple, cx: Optional[Completion]) -> Optional[Future]:
        if op not in self.ops:
            raise UpcxxError(f"op {op!r} not declared in this atomic_domain ({sorted(self.ops)})")
        if gptr.dtype != self.dtype:
            raise UpcxxError(f"atomic_domain dtype {self.dtype} != pointer dtype {gptr.dtype}")
        rt = self.rt
        check_host_target(gptr, rt.world.n_ranks, f"atomic {op}")
        conduit_op, fetches = _OP_TABLE[op]
        sp = rt.spans
        sid = None
        t_api = 0.0
        if sp is not None:
            sid = rt.next_span_sid()
            t_api = rt.now()
        rt.charge_sw(rt.costs.atomic_inject)
        promise, fut = resolve(cx, rt)
        anonymous = cx is not None and cx.kind == "promise"

        def injector():
            opid = rt.next_op_id()
            rt.actQ[opid] = f"amo {op} -> {gptr.rank}"
            t_active = rt.now()
            if sp is not None:
                sp.record(t_api, t_active, rt.rank, sid, "inject_sw", "amo", self.dtype.itemsize)
            handle = rt.conduit.amo(
                rt.rank, gptr.rank, gptr.offset, conduit_op, self.dtype, operands, span=sid
            )

            def on_done(h):
                def fulfill():
                    rt.actQ.pop(opid, None)
                    if promise is None:
                        return
                    if anonymous:
                        promise.fulfill_anonymous(1)
                    elif fetches:
                        promise.fulfill_result(h.data)
                    else:
                        promise.fulfill_result()

                rt.gasnet_completed(
                    CompQItem.acquire(
                        rt._c_completion,
                        fulfill,
                        "amo",
                        self.dtype.itemsize,
                        t_active,
                        sid=sid,
                    ),
                    h.time_done,
                )
                rt.sched.wake(rt.rank, h.time_done)

            handle.on_complete(on_done)

        rt.enqueue_deferred(injector, kind="amo", nbytes=self.dtype.itemsize)
        rt.internal_progress()
        return fut

    # ------------------------------------------------------------- operations
    def load(self, gptr: GlobalPtr, cx=None) -> Future:
        """Future of the current value at ``gptr``."""
        return self._issue("load", gptr, (), cx)

    def store(self, gptr: GlobalPtr, value, cx=None) -> Future:
        """Atomically store ``value``."""
        return self._issue("store", gptr, (value,), cx)

    def add(self, gptr: GlobalPtr, value, cx=None) -> Future:
        """Atomic add without fetch."""
        return self._issue("add", gptr, (value,), cx)

    def fetch_add(self, gptr: GlobalPtr, value, cx=None) -> Future:
        """Atomic add; future of the pre-update value."""
        return self._issue("fetch_add", gptr, (value,), cx)

    def min(self, gptr: GlobalPtr, value, cx=None) -> Future:
        return self._issue("min", gptr, (value,), cx)

    def max(self, gptr: GlobalPtr, value, cx=None) -> Future:
        return self._issue("max", gptr, (value,), cx)

    def bit_and(self, gptr: GlobalPtr, value, cx=None) -> Future:
        return self._issue("bit_and", gptr, (value,), cx)

    def bit_or(self, gptr: GlobalPtr, value, cx=None) -> Future:
        return self._issue("bit_or", gptr, (value,), cx)

    def bit_xor(self, gptr: GlobalPtr, value, cx=None) -> Future:
        return self._issue("bit_xor", gptr, (value,), cx)

    def compare_exchange(self, gptr: GlobalPtr, expected, desired, cx=None) -> Future:
        """Atomic CAS; future of the previous value (success iff == expected)."""
        return self._issue("compare_exchange", gptr, (expected, desired), cx)
