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

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gasnet.handle import Transfer
from repro.gasnet.network import PATH_BTE, PATH_FMA
from repro.upcxx.completion import Completion, resolve
from repro.upcxx.errors import GlobalPtrError, UpcxxError
from repro.upcxx.future import Future
from repro.upcxx.global_ptr import GlobalPtr, check_host_target
from repro.upcxx.rma import RmaOp, _as_bytes
from repro.upcxx.runtime import current_runtime


class VisOp(RmaOp):
    """One ``rput_irregular``/``rget_irregular`` (so one strided transfer
    too): an :class:`~repro.upcxx.rma.RmaOp` whose ``frags`` — (pointer,
    bytes to put or None to get) pairs — go on the wire as one conduit
    put or get each.  The last fragment to complete stages the operation,
    whose ``data`` then holds each fragment's bytes (None for a put's);
    ``dtype`` is each fragment's element type when the future carries
    them.  Not pooled."""

    __slots__ = ("frags", "left")
    POOL_MAX = 0

    def inject(self) -> None:
        """defQ -> actQ (internal progress): hand every fragment to the conduit."""
        now = self._activate()
        # defQ counted the direction; compQ, metrics and trace count "vis"
        self.kind = "vis"
        conduit = self.conduit
        frags = self.frags
        self.left = len(frags)
        self.data = [None] * len(frags)
        for i, (gptr, raw) in enumerate(frags):
            get = raw is None
            x = _Fragment(conduit, self.src, "get" if get else "put", gptr.rank, gptr.offset,
                          gptr.nbytes if get else len(raw), raw, self.path)
            x.op = self
            x.i = i
            if get:
                conduit.get(x, now)
            else:
                conduit.put(x, now)

    def value(self) -> List[np.ndarray]:
        """What an ``rget_irregular``'s future carries: one array per fragment."""
        return [np.frombuffer(b, dtype=dt).copy() for b, dt in zip(self.data, self.dtype)]


class _Fragment(Transfer):
    """One VIS fragment on the wire: completing, it counts its operation down."""

    __slots__ = ("op", "i")

    def complete(self, time: float, data=None) -> None:
        op = self.op
        op.data[self.i] = self.data
        op.left -= 1
        if not op.left:
            op.complete(time)


def _vis(kind: str, frags: List[Tuple[GlobalPtr, Optional[bytes]]], cx: Optional[Completion]):
    """The injection call ``rput_irregular`` and ``rget_irregular`` share:
    check the fragments, charge one injection plus a little per fragment,
    and queue one :class:`VisOp`."""
    rt = current_runtime()
    if not frags:
        raise UpcxxError(f"{kind} requires at least one fragment")
    rank = frags[0][0].rank
    for gptr, raw in frags:
        check_host_target(gptr, rt.world.n_ranks, kind)
        if gptr.rank != rank:
            raise GlobalPtrError(f"all fragments of one {kind} must target one rank")
        if raw is not None and len(raw) > gptr.nbytes:
            raise GlobalPtrError(f"fragment of {len(raw)}B exceeds span {gptr.nbytes}B")

    rt.charge_sw(rt.costs.rma_inject + rt.costs.vis_per_fragment * len(frags))
    op = VisOp(rt)
    op.promise, fut = resolve(cx, rt)
    op.kind = kind
    op.dst = rank
    op.frags = frags
    op.nbytes = total = sum(g.nbytes if raw is None else len(raw) for g, raw in frags)
    op.path = PATH_FMA if total < rt.costs.bte_threshold else PATH_BTE
    # a put, or a get a promise tracks, completes without a value
    fetched = kind == "rget_irregular" and (cx is None or cx.kind != "promise")
    op.dtype = tuple(g.dtype for g, _ in frags) if fetched else None
    rt.defer(op)
    rt.internal_progress()
    return fut


def rput_irregular(
    fragments: Sequence[Tuple[GlobalPtr, object]],
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Put many (destination pointer, data) fragments as one operation.

    All fragments must target the same rank (one VIS operation maps to one
    network flow, as in GASNet VIS).
    """
    return _vis("rput_irregular", [(gptr, _as_bytes(data, gptr)) for gptr, data in fragments], cx)


def rget_irregular(
    fragments: Sequence[GlobalPtr],
    cx: Optional[Completion] = None,
) -> Optional[Future]:
    """Get many fragments as one operation; future of a list of arrays."""
    return _vis("rget_irregular", [(gptr, None) for gptr in fragments], cx)


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
