"""Unit and property tests for the shared-segment allocator."""

import os
import resource
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gasnet.segment import Segment, SegmentAllocationError


def test_simple_alloc_free():
    seg = Segment(4096, owner_rank=0)
    off = seg.allocate(100)
    assert seg.is_live(off)
    assert seg.bytes_in_use >= 100
    seg.deallocate(off)
    assert not seg.is_live(off)
    assert seg.bytes_in_use == 0
    assert seg.free_bytes == 4096


def test_alignment():
    seg = Segment(4096, owner_rank=0, align=64)
    a = seg.allocate(1)
    b = seg.allocate(1)
    assert a % 64 == 0 and b % 64 == 0
    assert b - a >= 64


def test_exhaustion_raises():
    seg = Segment(1024, owner_rank=0)
    seg.allocate(1024)
    with pytest.raises(SegmentAllocationError):
        seg.allocate(1)


def test_coalescing_allows_reuse():
    seg = Segment(1024, owner_rank=0, align=64)
    offs = [seg.allocate(256) for _ in range(4)]
    for off in offs:
        seg.deallocate(off)
    # after coalescing the full segment should be allocatable again
    big = seg.allocate(1024)
    assert big == 0


def test_write_read_roundtrip():
    seg = Segment(4096, owner_rank=0)
    off = seg.allocate(16)
    seg.write(off, b"hello world!!!!!")
    assert seg.read(off, 16) == b"hello world!!!!!"


def test_typed_view_is_zero_copy():
    seg = Segment(4096, owner_rank=0)
    off = seg.allocate(8 * 10)
    v = seg.view(off, np.float64, 10)
    v[:] = np.arange(10.0)
    raw = np.frombuffer(seg.read(off, 80), dtype=np.float64)
    assert np.array_equal(raw, np.arange(10.0))


def test_out_of_range_access_rejected():
    seg = Segment(128, owner_rank=0)
    with pytest.raises(ValueError):
        seg.read(120, 16)
    with pytest.raises(ValueError):
        seg.write(125, b"abcdef")
    with pytest.raises(ValueError):
        seg.view(124, np.float64, 1)


def test_double_free_rejected():
    seg = Segment(1024, owner_rank=0)
    off = seg.allocate(64)
    seg.deallocate(off)
    with pytest.raises(ValueError):
        seg.deallocate(off)


def test_zero_size_alloc_legal_and_distinct():
    # UPC++ allocate(0)/new_array<T>(0) are legal: the pointer is valid,
    # distinct, and freeable (it consumes one alignment unit internally)
    seg = Segment(1024, owner_rank=0, align=64)
    a = seg.allocate(0)
    b = seg.allocate(0)
    assert a != b
    assert seg.is_live(a) and seg.is_live(b)
    seg.deallocate(a)
    seg.deallocate(b)
    seg.check_invariants()
    assert seg.bytes_in_use == 0
    assert seg.free_bytes == 1024


def test_negative_size_alloc_rejected():
    seg = Segment(1024, owner_rank=0)
    with pytest.raises(ValueError):
        seg.allocate(-1)


def test_unknown_offset_free_rejected():
    seg = Segment(1024, owner_rank=0, align=64)
    off = seg.allocate(64)
    with pytest.raises(ValueError):
        seg.deallocate(off + 64)  # inside the segment, never allocated
    with pytest.raises(ValueError):
        seg.deallocate(1)  # misaligned, not a live allocation
    seg.deallocate(off)
    seg.check_invariants()


def test_three_way_merge():
    # freeing b last must merge hole-a + b + hole-c into one region
    seg = Segment(1024, owner_rank=0, align=64)
    a = seg.allocate(64)
    b = seg.allocate(64)
    c = seg.allocate(64)
    d = seg.allocate(64)  # guard so c's right neighbor is live
    seg.deallocate(a)
    seg.deallocate(c)
    assert len(seg._free) == 3  # [a], [c], tail after d
    seg.deallocate(b)
    seg.check_invariants()
    assert len(seg._free) == 2  # [a..c] merged, tail after d
    assert seg._free[0] == (a, 192)
    seg.deallocate(d)
    seg.check_invariants()
    assert seg._free == [(0, 1024)]


def test_left_only_and_right_only_merge():
    seg = Segment(1024, owner_rank=0, align=64)
    a = seg.allocate(64)
    b = seg.allocate(64)
    c = seg.allocate(64)
    _guard = seg.allocate(64)
    # left-only: free a, then b -> one hole [a, a+128)
    seg.deallocate(a)
    seg.deallocate(b)
    seg.check_invariants()
    assert (a, 128) in seg._free
    # right-only: free c -> merges with the [a, a+128) hole on its left
    # (c's right neighbor is the live guard); exercise the mirror case too
    seg.deallocate(c)
    seg.check_invariants()
    assert (a, 192) in seg._free
    # right-only proper: allocate fresh pair, free the right one first
    x = seg.allocate(64)
    y = seg.allocate(64)
    seg.deallocate(y)
    seg.deallocate(x)
    seg.check_invariants()
    assert not seg.is_live(x) and not seg.is_live(y)


def test_peak_tracking():
    seg = Segment(4096, owner_rank=0, align=64)
    a = seg.allocate(1024)
    b = seg.allocate(1024)
    seg.deallocate(a)
    seg.deallocate(b)
    assert seg.peak_in_use == 2048
    assert seg.bytes_in_use == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 700)), min_size=1, max_size=120))
def test_allocator_invariants_random_workload(ops):
    """Random alloc/free sequences never corrupt the free list, and the
    backing buffer holds what was written, where it was written."""
    size = 16 * 1024
    seg = Segment(size, owner_rank=0)
    live = {}  # offset -> the bytes written there
    high = 0  # no byte at or past this offset was ever handed out
    for step, (do_alloc, n) in enumerate(ops):
        if do_alloc or not live:
            try:
                off = seg.allocate(n)
            except SegmentAllocationError:
                continue
            data = bytes([step % 251 + 1]) * n
            seg.write(off, data)
            assert seg.read(off, n) == data
            assert seg.view(off, np.uint8, n).tobytes() == data
            live[off] = data
            high = max(high, off + seg.allocation_size(off))
        else:
            off = sorted(live)[n % len(live)]
            seg.deallocate(off)
            del live[off]
        seg.check_invariants()
    for off, data in live.items():  # neighbours never bled into each other
        assert seg.read(off, len(data)) == data
        seg.deallocate(off)
    seg.check_invariants()
    assert seg.free_bytes == size
    assert seg.read(high, size - high) == bytes(size - high)  # untouched: zero
    before = seg.read(0, size)
    with pytest.raises(ValueError):
        seg.write(size - 1, b"ab")  # runs off the end
    with pytest.raises(ValueError):
        seg.write(0, memoryview(np.arange(4.0)))  # 4 items but 32 bytes
    assert seg.read(0, size) == before  # a rejected write stores nothing


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 300), min_size=1, max_size=40))
def test_no_overlap_between_live_allocations(sizes):
    seg = Segment(64 * 1024, owner_rank=0)
    spans = []
    for n in sizes:
        off = seg.allocate(n)
        spans.append((off, off + n))
    spans.sort()
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2, "allocations overlap"


# ------------------------------------------------------------ demand-zero
def _rss_mib() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_segment_is_reserved_not_resident():
    """Constructing a segment neither zeroes nor touches it."""
    before = _rss_mib()
    t0 = time.perf_counter()
    seg = Segment(1 << 30, owner_rank=0)
    took = time.perf_counter() - t0
    assert took < 0.050, f"1 GiB segment took {took * 1e3:.1f} ms to construct"
    assert _rss_mib() - before < 8
    assert seg.read((1 << 30) - 64, 64) == bytes(64)
    seg.write(1 << 29, b"touched")
    assert seg.read(1 << 29, 7) == b"touched"
    assert _rss_mib() - before < 8  # two pages touched, not 1 GiB


def test_launch_pays_for_bytes_touched_not_reserved():
    """256 ranks x 32 MiB is 8 GiB of address space and next to no memory."""
    import repro.upcxx as upcxx

    before = _peak_rss_mib()
    assert upcxx.run_spmd(upcxx.rank_me, 256) == list(range(256))
    assert _peak_rss_mib() - before < 256


def test_returned_view_outlives_the_job():
    """Teardown dereferences segments, it never closes them: a view a rank
    hands back keeps its own segment mapped and readable."""
    import repro.upcxx as upcxx

    def body():
        view = upcxx.new_array(np.int64, 1024).local()
        view[:] = np.arange(1024) + 1024 * upcxx.rank_me()
        return view

    views = upcxx.run_spmd(body, 4)
    for rank, view in enumerate(views):
        assert np.array_equal(view, np.arange(1024) + 1024 * rank)
        view[0] = -1  # still writable memory, not a dangling pointer
        assert view[0] == -1
