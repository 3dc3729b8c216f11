"""Non-contiguous RMA (VIS: Vector/Indexed/Strided), paper §II.

UPC++ extends put/get to non-contiguous shapes so multidimensional-array
traffic does not need one injection per fragment:

- ``rput_irregular`` / ``rget_irregular`` — arbitrary (pointer, data)
  fragment lists (the *vector* flavor);
- ``rput_strided`` / ``rget_strided`` — regular 2-D strided sections
  (column panels of the block-cyclic fronts in the sparse solver).

The whole operation shares a single injection charge plus a small
per-fragment cost, and completes (single future/promise) when every
fragment has committed — cheaper than naive per-fragment rput both in
software and because fragments pipeline on the NIC.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.gasnet.network import PATH_BTE, PATH_FMA
from repro.upcxx.completion import Completion, resolve
from repro.upcxx.errors import GlobalPtrError, UpcxxError
from repro.upcxx.future import Future
from repro.upcxx.global_ptr import GlobalPtr, check_host_target
from repro.upcxx.rma import _as_bytes
from repro.upcxx.runtime import CompQItem, current_runtime


def rput_irregular(
    fragments: Sequence[Tuple[GlobalPtr, object]],
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Put many (destination pointer, data) fragments as one operation.

    All fragments must target the same rank (one VIS operation maps to one
    network flow, as in GASNet VIS).
    """
    rt = current_runtime()
    frags: List[Tuple[GlobalPtr, bytes]] = []
    for gptr, data in fragments:
        frags.append((gptr, _as_bytes(data, gptr)))
    if not frags:
        raise UpcxxError("rput_irregular requires at least one fragment")
    dst_rank = frags[0][0].rank
    for gptr, raw in frags:
        check_host_target(gptr, rt.world.n_ranks, "rput_irregular")
        if gptr.rank != dst_rank:
            raise GlobalPtrError("all fragments of one rput_irregular must target one rank")
        if len(raw) > gptr.nbytes:
            raise GlobalPtrError(f"fragment of {len(raw)}B exceeds span {gptr.nbytes}B")

    rt.charge_sw(rt.costs.rma_inject + rt.costs.vis_per_fragment * len(frags))
    promise, fut = resolve(cx, rt)
    total = sum(len(raw) for _, raw in frags)
    path = PATH_FMA if total < rt.costs.bte_threshold else PATH_BTE

    def injector():
        opid = rt.next_op_id()
        rt.actQ[opid] = f"rput_irregular {len(frags)} frags -> {dst_rank}"
        t_active = rt.now()
        state = {"left": len(frags)}

        def on_done(h):
            state["left"] -= 1
            if state["left"]:
                return

            def fulfill():
                rt.actQ.pop(opid, None)
                if promise is not None:
                    promise.fulfill_anonymous(1)

            rt.gasnet_completed(
                CompQItem(rt.cpu.t(rt.costs.completion), fulfill, "vis", total, t_active),
                h.time_done,
            )
            rt.sched.wake(rt.rank, h.time_done)

        for gptr, raw in frags:
            rt.conduit.put_nb(rt.rank, dst_rank, gptr.offset, raw, path).on_complete(on_done)

    rt.enqueue_deferred(injector, kind="rput_irregular", nbytes=total)
    rt.internal_progress()
    return fut


def rget_irregular(
    fragments: Sequence[GlobalPtr],
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Get many fragments as one operation; future of a list of arrays."""
    rt = current_runtime()
    frags = list(fragments)
    if not frags:
        raise UpcxxError("rget_irregular requires at least one fragment")
    src_rank = frags[0].rank
    for gptr in frags:
        check_host_target(gptr, rt.world.n_ranks, "rget_irregular")
        if gptr.rank != src_rank:
            raise GlobalPtrError("all fragments of one rget_irregular must target one rank")

    rt.charge_sw(rt.costs.rma_inject + rt.costs.vis_per_fragment * len(frags))
    promise, fut = resolve(cx, rt)
    anonymous = cx is not None and cx.kind == "promise"
    total = sum(g.nbytes for g in frags)
    path = PATH_FMA if total < rt.costs.bte_threshold else PATH_BTE

    def injector():
        opid = rt.next_op_id()
        rt.actQ[opid] = f"rget_irregular {len(frags)} frags <- {src_rank}"
        t_active = rt.now()
        results: List[Optional[np.ndarray]] = [None] * len(frags)
        state = {"left": len(frags)}

        def make_cb(i: int, gptr: GlobalPtr):
            def on_done(h):
                results[i] = np.frombuffer(h.data, dtype=gptr.dtype).copy()
                state["left"] -= 1
                if state["left"]:
                    return

                def fulfill():
                    rt.actQ.pop(opid, None)
                    if promise is None:
                        return
                    if anonymous:
                        promise.fulfill_anonymous(1)
                    else:
                        promise.fulfill_result(list(results))

                rt.gasnet_completed(
                    CompQItem(rt.cpu.t(rt.costs.completion), fulfill, "vis", total, t_active),
                    h.time_done,
                )
                rt.sched.wake(rt.rank, h.time_done)

            return on_done

        for i, gptr in enumerate(frags):
            rt.conduit.get_nb(rt.rank, src_rank, gptr.offset, gptr.nbytes, path).on_complete(
                make_cb(i, gptr)
            )

    rt.enqueue_deferred(injector, kind="rget_irregular", nbytes=total)
    rt.internal_progress()
    return fut


def _strided_fragments(base: GlobalPtr, n_rows: int, n_cols: int, col_stride_elems: int):
    """Pointers to the ``n_cols`` column fragments of a strided section."""
    if n_rows <= 0 or n_cols <= 0:
        raise UpcxxError("strided section must be non-empty")
    span_needed = (n_cols - 1) * col_stride_elems + n_rows
    if span_needed > base.count:
        raise GlobalPtrError(
            f"strided section needs {span_needed} elements, pointer spans {base.count}"
        )
    out = []
    for c in range(n_cols):
        p = base + c * col_stride_elems
        out.append(GlobalPtr(p.rank, p.offset, p.dtype, n_rows))
    return out


def rput_strided(
    src: np.ndarray,
    dest: GlobalPtr,
    col_stride_elems: int,
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Put a 2-D array (rows x cols, Fortran-style columns) into a strided
    remote section whose columns start ``col_stride_elems`` apart."""
    arr = np.asarray(src)
    if arr.ndim != 2:
        raise UpcxxError(f"rput_strided needs a 2-D array, got ndim={arr.ndim}")
    n_rows, n_cols = arr.shape
    ptrs = _strided_fragments(dest, n_rows, n_cols, col_stride_elems)
    frags = [(ptrs[c], np.ascontiguousarray(arr[:, c])) for c in range(n_cols)]
    return rput_irregular(frags, cx)


def rget_strided(
    src: GlobalPtr,
    n_rows: int,
    n_cols: int,
    col_stride_elems: int,
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Get a strided 2-D section; future of an (n_rows, n_cols) array."""
    ptrs = _strided_fragments(src, n_rows, n_cols, col_stride_elems)
    fut = rget_irregular(ptrs, cx)
    if fut is None:
        return None
    return fut.then(lambda cols: np.column_stack(cols))
