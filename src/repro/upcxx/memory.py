"""Shared-segment memory management (``upcxx::allocate`` / ``new_array``).

Allocation is always in the **calling rank's own** shared segment (remote
allocation requires an RPC — see the paper's DHT ``make_lz``, which is an
RPC precisely because there is no remote allocate).
"""

from __future__ import annotations

import numpy as np

from repro.upcxx.global_ptr import GlobalPtr
from repro.upcxx.runtime import current_runtime


def allocate(nbytes: int, rt=None) -> GlobalPtr:
    """Allocate ``nbytes`` of uninitialized local shared memory.

    ``nbytes == 0`` is legal (as in UPC++): the pointer is valid, distinct,
    and deallocatable, and zero-byte rput/rget through it are no-ops.
    """
    rt = rt or current_runtime()
    rt.charge_sw(rt.costs.alloc)
    off = rt.conduit.segment(rt.rank).allocate(nbytes)
    return GlobalPtr(rt.rank, off, np.uint8, nbytes)


def new_array(dtype, count: int, rt=None) -> GlobalPtr:
    """Allocate a typed array in local shared memory (``upcxx::new_array``).

    ``count == 0`` is legal, mirroring ``new T[0]``.
    """
    rt = rt or current_runtime()
    dt = np.dtype(dtype)
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    rt.charge_sw(rt.costs.alloc)
    off = rt.conduit.segment(rt.rank).allocate(dt.itemsize * count)
    return GlobalPtr(rt.rank, off, dt, count)


def deallocate(gptr: GlobalPtr, rt=None) -> None:
    """Free shared memory previously allocated by this rank."""
    rt = rt or current_runtime()
    if gptr.rank != rt.rank:
        raise ValueError(
            f"rank {rt.rank} cannot deallocate memory owned by rank {gptr.rank} "
            "(use an RPC to the owner)"
        )
    rt.charge_sw(rt.costs.alloc)
    rt.conduit.segment(rt.rank).deallocate(gptr.offset)


def segment_usage(rt=None) -> dict:
    """Local shared-segment accounting (diagnostics)."""
    rt = rt or current_runtime()
    seg = rt.conduit.segment(rt.rank)
    return {
        "size": seg.size,
        "in_use": seg.bytes_in_use,
        "peak": seg.peak_in_use,
        "free": seg.free_bytes,
        "allocs": seg.n_allocs,
    }
