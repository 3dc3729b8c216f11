"""End-to-end tests for global pointers, memory, and rput/rget."""

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.upcxx.errors import GlobalPtrError


class TestGlobalPtr:
    def test_arithmetic(self):
        p = upcxx.GlobalPtr(0, 128, np.float64, 10)
        q = p + 3
        assert q.offset == 128 + 24
        assert q.count == 7
        assert q - p == 3
        assert (q - 2).offset == 128 + 8

    def test_indexing(self):
        p = upcxx.GlobalPtr(1, 0, np.int32, 5)
        assert p[2].offset == 8

    def test_past_end_rejected(self):
        p = upcxx.GlobalPtr(0, 0, np.float64, 2)
        with pytest.raises(GlobalPtrError):
            p + 3

    def test_cast(self):
        p = upcxx.GlobalPtr(0, 0, np.uint8, 16)
        q = p.cast(np.float64)
        assert q.count == 2
        with pytest.raises(GlobalPtrError):
            upcxx.GlobalPtr(0, 0, np.uint8, 10).cast(np.float64)

    def test_null(self):
        assert upcxx.NULL.is_null()
        assert not upcxx.NULL
        assert upcxx.GlobalPtr(0, 0, np.uint8, 4)

    def test_diff_requires_same_rank(self):
        a = upcxx.GlobalPtr(0, 0, np.float64, 4)
        b = upcxx.GlobalPtr(1, 0, np.float64, 4)
        with pytest.raises(GlobalPtrError):
            a - b


class TestMemory:
    def test_allocate_local_view(self):
        def body():
            g = upcxx.new_array(np.float64, 8)
            assert g.rank == upcxx.rank_me()
            v = g.local()
            v[:] = np.arange(8.0)
            assert np.array_equal(g.local(), np.arange(8.0))
            upcxx.deallocate(g)

        upcxx.run_spmd(body, 2)

    def test_zero_size_allocation_legal(self):
        # allocate(0) / new_array<T>(0) are legal UPC++: valid, distinct,
        # deallocatable pointers
        def body():
            a = upcxx.allocate(0)
            b = upcxx.new_array(np.float64, 0)
            assert a.count == 0 and b.count == 0
            assert (a.rank, a.offset) != (b.rank, b.offset)
            upcxx.deallocate(a)
            upcxx.deallocate(b)
            assert upcxx.segment_usage()["in_use"] == 0
            with pytest.raises(ValueError):
                upcxx.new_array(np.float64, -1)

        upcxx.run_spmd(body, 1)

    def test_local_view_of_remote_rejected(self):
        def body():
            g = upcxx.new_array(np.float64, 4)
            if upcxx.rank_me() == 0:
                remote = upcxx.GlobalPtr(1, g.offset, g.dtype, g.count)
                with pytest.raises(GlobalPtrError):
                    remote.local()
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_deallocate_remote_rejected(self):
        def body():
            g = upcxx.new_array(np.float64, 4)
            if upcxx.rank_me() == 0:
                remote = upcxx.GlobalPtr(1, g.offset, g.dtype, g.count)
                with pytest.raises(ValueError):
                    upcxx.deallocate(remote)
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_segment_usage(self):
        def body():
            g = upcxx.allocate(1000)
            u = upcxx.segment_usage()
            assert u["in_use"] >= 1000
            upcxx.deallocate(g)
            return upcxx.segment_usage()["in_use"]

        assert upcxx.run_spmd(body, 1) == [0]


def _exchange_ptrs(make):
    """Helper: every rank allocates via ``make`` and broadcasts its pointer."""
    g = make()
    ptrs = [upcxx.broadcast(g, root=r).wait() for r in range(upcxx.rank_n())]
    return g, ptrs


class TestRputRget:
    def test_blocking_rput_then_rget(self):
        def body():
            me = upcxx.rank_me()
            g, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.float64, 4))
            if me == 0:
                upcxx.rput(np.array([1.0, 2.0, 3.0, 4.0]), ptrs[1]).wait()
                got = upcxx.rget(ptrs[1]).wait()
                assert np.array_equal(got, [1.0, 2.0, 3.0, 4.0])
            upcxx.barrier()
            if me == 1:
                assert np.array_equal(g.local(), [1.0, 2.0, 3.0, 4.0])

        upcxx.run_spmd(body, 2)

    def test_rput_scalar_and_rget_scalar(self):
        def body():
            me = upcxx.rank_me()
            _, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.int64, 1))
            if me == 1:
                upcxx.rput(77, ptrs[0]).wait()
            upcxx.barrier()
            return upcxx.rget(ptrs[0]).wait()

        assert upcxx.run_spmd(body, 2) == [77, 77]

    def test_rput_takes_simulated_time(self):
        def body():
            _, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.uint8, 4096))
            dt = None
            if upcxx.rank_me() == 0:
                t0 = upcxx.sim_now()
                upcxx.rput(bytes(4096), ptrs[1]).wait()
                dt = upcxx.sim_now() - t0
                # at least a round trip of inter-node latency
                assert dt > 1.0e-6
            upcxx.barrier()
            return dt

        upcxx.run_spmd(body, 2, ppn=1)

    def test_rput_as_promise_tracks_many(self):
        def body():
            _, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.float64, 64))
            if upcxx.rank_me() == 0:
                p = upcxx.Promise()
                for i in range(10):
                    upcxx.rput(
                        np.full(4, float(i)),
                        ptrs[1] + 4 * i,
                        cx=upcxx.operation_cx.as_promise(p),
                    )
                p.finalize().wait()
                back = upcxx.rget(ptrs[1]).wait()
                assert back[4 * 9] == 9.0
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_rput_overflow_rejected(self):
        def body():
            g = upcxx.new_array(np.float64, 2)
            with pytest.raises(GlobalPtrError):
                upcxx.rput(np.zeros(4), g)

        upcxx.run_spmd(body, 1)

    def test_rget_partial_count(self):
        def body():
            g = upcxx.new_array(np.float64, 8)
            g.local()[:] = np.arange(8.0)
            got = upcxx.rget(g, count=3).wait()
            assert np.array_equal(got, [0.0, 1.0, 2.0])

        upcxx.run_spmd(body, 1)

    def test_zero_byte_rput_completes(self):
        # UPC++ permits zero-length transfers: they complete (after the
        # round trip) without touching target memory
        def body():
            me = upcxx.rank_me()
            g, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.float64, 4))
            if me == 1:
                g.local()[:] = np.arange(4.0)
            upcxx.barrier()
            if me == 0:
                upcxx.rput(b"", ptrs[1]).wait()
                upcxx.rput(np.zeros(0), ptrs[1]).wait()
            upcxx.barrier()
            if me == 1:
                assert np.array_equal(g.local(), np.arange(4.0))  # untouched
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_zero_byte_rget_completes(self):
        def body():
            me = upcxx.rank_me()
            _, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.float64, 4))
            if me == 0:
                got = upcxx.rget(ptrs[1], count=0).wait()
                assert len(got) == 0
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    @pytest.mark.parametrize("rank", [-1, 2, 7])
    def test_pointer_rank_is_range_checked(self, rank):
        """A rank the job does not have is a typed error at the API; a
        negative one used to index the endpoint table from its end and
        overwrite the last rank's segment."""

        def body():
            g = upcxx.new_array(np.float64, 4)
            g.local()[:] = 1.0
            upcxx.barrier()
            bad = upcxx.GlobalPtr(rank, g.offset, np.float64, 4)
            with pytest.raises(GlobalPtrError, match="out of range"):
                upcxx.rput(np.zeros(4), bad)
            with pytest.raises(GlobalPtrError, match="out of range"):
                upcxx.rget(bad)
            with pytest.raises(GlobalPtrError, match="out of range"):
                upcxx.rput_irregular([(bad, np.zeros(4))])
            with pytest.raises(GlobalPtrError, match="out of range"):
                upcxx.rget_irregular([bad])
            with pytest.raises(GlobalPtrError, match="out of range"):
                upcxx.AtomicDomain(["load"], np.float64).load(bad)
            with pytest.raises(GlobalPtrError, match="out of range"):
                upcxx.copy(np.zeros(4), bad)
            upcxx.barrier()
            return g.local().tolist()

        assert upcxx.run_spmd(body, 2) == [[1.0] * 4] * 2

    def test_zero_byte_rput_through_null_rejected(self):
        def body():
            with pytest.raises(GlobalPtrError, match="null pointer"):
                upcxx.rput(b"", upcxx.NULL)
            with pytest.raises(GlobalPtrError, match="null pointer"):
                upcxx.rget(upcxx.NULL)

        upcxx.run_spmd(body, 2)

    def test_remote_cx_as_rpc_runs_at_target(self):
        hits = []

        def body():
            me = upcxx.rank_me()
            _, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.float64, 2))
            upcxx.barrier()
            if me == 0:
                upcxx.rput(
                    np.array([5.0, 6.0]),
                    ptrs[1],
                    cx=upcxx.remote_cx.as_rpc(lambda: hits.append(upcxx.rank_me())),
                )
            upcxx.barrier()
            return hits[:]

        upcxx.run_spmd(body, 2)
        assert hits == [1]  # executed on the target rank

    def test_then_chain_after_rput(self):
        def body():
            me = upcxx.rank_me()
            _, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.float64, 2))
            if me == 0:
                f = upcxx.rput(np.array([1.0, 2.0]), ptrs[1]).then(
                    lambda: upcxx.rget(ptrs[1])
                )
                got = f.wait()
                assert np.array_equal(got, [1.0, 2.0])
            upcxx.barrier()

        upcxx.run_spmd(body, 2)


class TestVis:
    def test_rput_irregular_fragments(self):
        def body():
            me = upcxx.rank_me()
            _, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.float64, 16))
            if me == 0:
                frags = [
                    (ptrs[1] + 0, np.array([1.0, 2.0])),
                    (ptrs[1] + 8, np.array([3.0])),
                    (ptrs[1] + 12, np.array([4.0, 5.0])),
                ]
                upcxx.rput_irregular(frags).wait()
                back = upcxx.rget(ptrs[1]).wait()
                assert back[0] == 1.0 and back[8] == 3.0 and back[13] == 5.0
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_strided_roundtrip(self):
        def body():
            me = upcxx.rank_me()
            _, ptrs = _exchange_ptrs(lambda: upcxx.new_array(np.float64, 100))
            if me == 0:
                block = np.arange(12.0).reshape(4, 3)  # 4 rows x 3 cols
                upcxx.rput_strided(block, ptrs[1], col_stride_elems=10).wait()
                back = upcxx.rget_strided(ptrs[1], 4, 3, 10).wait()
                assert np.array_equal(back, block)
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_irregular_mixed_ranks_rejected(self):
        def body():
            a = upcxx.new_array(np.float64, 2)
            other = (upcxx.rank_me() + 1) % upcxx.rank_n()
            b = upcxx.GlobalPtr(other, 0, np.float64, 2)
            with pytest.raises(GlobalPtrError):
                upcxx.rput_irregular([(a, np.zeros(2)), (b, np.zeros(2))])
            upcxx.barrier()

        upcxx.run_spmd(body, 2)
