"""Global pointers: typed references into any rank's shared segment.

A :class:`GlobalPtr` names ``(rank, byte offset, element dtype)`` within
the PGAS global memory.  Per the paper's explicit-data-motion principle it
**cannot be dereferenced** — data moves only through ``rput``/``rget``/
atomics — but it supports pointer arithmetic, comparison, and conversion
to/from a local (numpy) view by the owning rank (``local()``), mirroring
``global_ptr<T>::local()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.upcxx.errors import GlobalPtrError


@dataclass(frozen=True)
class GlobalPtr:
    """A typed pointer into rank ``rank``'s shared segment.

    ``kind`` names the memory the pointer refers to: ``"host"`` (the
    default shared segment) or ``"device"`` (GPU memory, see
    :mod:`repro.upcxx.device`) — the memory-kinds extension the paper
    lists as future work.
    """

    rank: int
    offset: int
    dtype: np.dtype = np.dtype(np.uint8)
    #: number of elements in the underlying allocation reachable from here
    count: int = 0
    kind: str = "host"

    def __post_init__(self):
        object.__setattr__(self, "dtype", np.dtype(self.dtype))
        if self.kind not in ("host", "device"):
            raise GlobalPtrError(f"unknown memory kind {self.kind!r}")

    # --------------------------------------------------------------- algebra
    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Bytes spanned by the ``count`` elements from this pointer."""
        return self.count * self.itemsize

    def __add__(self, n: int) -> "GlobalPtr":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.__sub__(-n)
        if n > self.count:
            raise GlobalPtrError(f"pointer arithmetic past end: +{n} with count {self.count}")
        return GlobalPtr(self.rank, self.offset + n * self.itemsize, self.dtype, self.count - n, self.kind)

    def __sub__(self, n):
        if isinstance(n, GlobalPtr):
            if n.rank != self.rank or n.dtype != self.dtype:
                raise GlobalPtrError("pointer difference requires same rank and dtype")
            delta = self.offset - n.offset
            if delta % self.itemsize:
                raise GlobalPtrError("misaligned pointer difference")
            return delta // self.itemsize
        if not isinstance(n, int):
            return NotImplemented
        return GlobalPtr(self.rank, self.offset - n * self.itemsize, self.dtype, self.count + n, self.kind)

    def __getitem__(self, i: int) -> "GlobalPtr":
        """``p[i]`` — pointer to the i-th element (no dereference!)."""
        return self + i

    def is_null(self) -> bool:
        return self.count == 0 and self.offset == 0 and self.rank < 0

    def __bool__(self) -> bool:
        return not self.is_null()

    def where(self) -> int:
        """The owning rank (``global_ptr::where()``)."""
        return self.rank

    def cast(self, dtype) -> "GlobalPtr":
        """Reinterpret as another element type (must divide the span)."""
        dt = np.dtype(dtype)
        span = self.nbytes
        if span % dt.itemsize:
            raise GlobalPtrError(f"cannot cast span of {span}B to dtype {dt}")
        return GlobalPtr(self.rank, self.offset, dt, span // dt.itemsize, self.kind)

    # ----------------------------------------------------------------- local
    def local(self) -> np.ndarray:
        """Owner-only zero-copy numpy view (``global_ptr::local()``).

        Device pointers cannot be viewed directly from the host (as on a
        real GPU); use :func:`repro.upcxx.copy` to move the data.
        """
        from repro.upcxx.runtime import current_runtime

        rt = current_runtime()
        if rt.rank != self.rank:
            raise GlobalPtrError(
                f"rank {rt.rank} cannot take a local view of memory owned by rank {self.rank}"
            )
        if self.kind != "host":
            raise GlobalPtrError("cannot take a host-local view of device memory; use upcxx.copy")
        return rt.world.conduit.segment(self.rank).view(self.offset, self.dtype, self.count)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        k = "" if self.kind == "host" else f", {self.kind}"
        return f"gptr(rank={self.rank}, off={self.offset}, {self.dtype}x{self.count}{k})"


def check_rank(gptr: GlobalPtr, n_ranks: int, what: str) -> None:
    """Reject a pointer whose rank does not exist: a negative one (the null
    pointer's) would index the endpoint table from its end and land in the
    last rank's memory."""
    if not 0 <= gptr.rank < n_ranks:
        null = "the null pointer" if gptr.is_null() else repr(gptr)
        raise GlobalPtrError(f"{what} through {null}: rank out of range [0, {n_ranks})")


def check_host_target(gptr: GlobalPtr, n_ranks: int, what: str) -> None:
    """Reject a pointer ``what`` (rput, rget, a VIS fragment, an atomic)
    cannot address: these move bytes to or from a rank's *host* segment at
    ``gptr.offset``, where a device offset would alias whatever the host
    segment holds."""
    check_rank(gptr, n_ranks, what)
    if gptr.kind != "host":
        raise GlobalPtrError(
            f"{what} cannot address {gptr.kind} memory ({gptr!r}); use upcxx.copy"
        )


#: the null global pointer
NULL = GlobalPtr(rank=-1, offset=0, dtype=np.uint8, count=0)
