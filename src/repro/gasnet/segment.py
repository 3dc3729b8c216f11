"""Shared segments: the registered memory every rank exposes for RMA.

Each rank owns one :class:`Segment` — a contiguous byte region that remote
ranks may read and write through the conduit (the PGAS "global memory" of
Fig. 1 in the paper).  A first-fit free-list allocator with coalescing
implements ``upcxx::allocate``/``deallocate``.

Typed views are provided through numpy (``view(offset, dtype, count)``),
which is how the UPC++ layer implements typed global pointers without
copying.

The bytes live in an anonymous private ``mmap``: like a GASNet segment the
region is *reserved* at construction and costs nothing until touched — the
kernel supplies zero pages on first access, so resident memory follows the
bytes a job writes, not ``ranks x segment_size``.  The mapping is returned
to the system by reference counting alone, when the segment and every view
exported from it are gone; it is never closed explicitly, because a view a
rank returned from its SPMD body may outlive the job.
"""

from __future__ import annotations

import mmap
from typing import List, Tuple

import numpy as np


class SegmentAllocationError(MemoryError):
    """The shared segment cannot satisfy an allocation."""


class Segment:
    """A rank's registered shared segment with a first-fit allocator.

    Alignment: all allocations are rounded up to ``align`` bytes (default
    64, a cache line), so successive allocations never share a line —
    matching how real PGAS allocators avoid false sharing.
    """

    def __init__(self, size: int, owner_rank: int, align: int = 64):
        if size <= 0:
            raise ValueError(f"segment size must be positive, got {size}")
        if align <= 0 or (align & (align - 1)) != 0:
            raise ValueError(f"alignment must be a positive power of two, got {align}")
        self.size = size
        self.owner_rank = owner_rank
        self.align = align
        #: the one backing buffer; ``read``/``write``/``view`` all go through it
        self.mem = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        # free list: sorted list of (offset, length)
        self._free: List[Tuple[int, int]] = [(0, size)]
        self._live: dict = {}  # offset -> length
        self.bytes_in_use = 0
        self.peak_in_use = 0
        self.n_allocs = 0

    # ------------------------------------------------------------- allocator
    def _round(self, n: int) -> int:
        a = self.align
        return (n + a - 1) & ~(a - 1)

    def allocate(self, nbytes: int) -> int:
        """Allocate ``nbytes``; returns the segment offset.

        ``nbytes == 0`` is legal (UPC++ ``allocate(0)``/``new_array<T>(0)``
        are): it consumes one alignment unit so the returned offset is a
        distinct, freeable allocation.  Raises
        :class:`SegmentAllocationError` when no hole fits.
        """
        if nbytes < 0:
            raise ValueError(f"allocation size must be non-negative, got {nbytes}")
        need = self._round(nbytes) if nbytes else self.align
        for i, (off, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    del self._free[i]
                else:
                    self._free[i] = (off + need, length - need)
                self._live[off] = need
                self.bytes_in_use += need
                self.peak_in_use = max(self.peak_in_use, self.bytes_in_use)
                self.n_allocs += 1
                return off
        raise SegmentAllocationError(
            f"segment of rank {self.owner_rank}: cannot allocate {nbytes} bytes "
            f"({self.bytes_in_use}/{self.size} in use, {len(self._free)} holes)"
        )

    def deallocate(self, offset: int) -> None:
        """Free a previous allocation by its offset."""
        try:
            length = self._live.pop(offset)
        except KeyError:
            raise ValueError(f"offset {offset} is not a live allocation") from None
        self.bytes_in_use -= length
        # insert into sorted free list and coalesce neighbors
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < offset:
                lo = mid + 1
            else:
                hi = mid
        self._free.insert(lo, (offset, length))
        # coalesce with next
        if lo + 1 < len(self._free):
            noff, nlen = self._free[lo + 1]
            if offset + length == noff:
                self._free[lo] = (offset, length + nlen)
                del self._free[lo + 1]
        # coalesce with previous
        if lo > 0:
            poff, plen = self._free[lo - 1]
            off2, len2 = self._free[lo]
            if poff + plen == off2:
                self._free[lo - 1] = (poff, plen + len2)
                del self._free[lo]

    def allocation_size(self, offset: int) -> int:
        """Rounded size of the live allocation at ``offset``."""
        return self._live[offset]

    def is_live(self, offset: int) -> bool:
        return offset in self._live

    # ------------------------------------------------------------- accessors
    def _check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.size:
            raise ValueError(
                f"range [{offset}, {offset + nbytes}) outside segment of size {self.size}"
            )

    def write(self, offset: int, data) -> None:
        """Raw byte store (used by the conduit to commit remote puts)."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            data = bytes(data)
        n = len(data)
        if type(data) is memoryview and data.nbytes != n:
            raise ValueError(
                f"write of {n} items spanning {data.nbytes} bytes: pass a flat byte buffer"
            )
        self._check_range(offset, n)
        self.mem[offset : offset + n] = data

    def read(self, offset: int, nbytes: int) -> bytes:
        """Raw byte load (used by the conduit to service remote gets)."""
        self._check_range(offset, nbytes)
        return self.mem[offset : offset + nbytes]

    def view(self, offset: int, dtype, count: int) -> np.ndarray:
        """Zero-copy typed numpy view into the segment."""
        dt = np.dtype(dtype)
        nbytes = dt.itemsize * count
        self._check_range(offset, nbytes)
        return np.frombuffer(memoryview(self.mem)[offset : offset + nbytes], dtype=dt)

    @property
    def free_bytes(self) -> int:
        return sum(length for _, length in self._free)

    def check_invariants(self) -> None:
        """Verify allocator consistency (tests/property checks)."""
        regions = sorted(
            [(off, length, "free") for off, length in self._free]
            + [(off, length, "live") for off, length in self._live.items()]
        )
        pos = 0
        for off, length, _kind in regions:
            if off < pos:
                raise AssertionError(f"overlapping regions at offset {off}")
            pos = off + length
        if pos > self.size:
            raise AssertionError("regions extend past segment end")
        covered = sum(length for _, length, _ in regions)
        if covered != self.size:
            raise AssertionError(f"coverage {covered} != size {self.size}")
        # free list must be sorted and fully coalesced
        for (o1, l1), (o2, _l2) in zip(self._free, self._free[1:]):
            if o1 + l1 == o2:
                raise AssertionError(f"uncoalesced free blocks at {o1}+{l1} and {o2}")
            if o2 <= o1:
                raise AssertionError("free list not sorted")
