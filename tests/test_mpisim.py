"""Tests for the MPI baseline: p2p (eager + rendezvous), collectives, RMA."""

import weakref

import numpy as np
import pytest

from repro.gasnet.cpumodel import platform_cpu
from repro.mpisim import run_mpi, comm_world, Win
from repro.sim.coop import current_scheduler
from repro.sim.errors import RankFailure
from repro.mpisim.profile import DEFAULT_MPI_COSTS


class TestP2P:
    def test_send_recv_object(self):
        def body():
            comm = comm_world()
            if comm.rank == 0:
                comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
                comm.barrier()
                return None
            data = comm.recv(source=0, tag=11)
            comm.barrier()
            return data

        res = run_mpi(body, 2)
        assert res[1] == {"a": 7, "b": 3.14}

    def test_isend_irecv(self):
        def body():
            comm = comm_world()
            if comm.rank == 0:
                req = comm.isend([1, 2, 3], dest=1, tag=5)
                req.wait()
            else:
                req = comm.irecv(source=0, tag=5)
                assert req.wait() == [1, 2, 3]
            comm.barrier()

        run_mpi(body, 2)

    def test_rendezvous_for_large_messages(self):
        big = np.arange(DEFAULT_MPI_COSTS.rndv_threshold, dtype=np.uint8)

        def body():
            comm = comm_world()
            if comm.rank == 0:
                comm.send(big, dest=1)
            else:
                got = comm.recv(source=0)
                assert np.array_equal(got, big)
            comm.barrier()

        run_mpi(body, 2)

    def test_wildcard_source_and_tag(self):
        def body():
            comm = comm_world()
            if comm.rank == 0:
                got = [comm.recv() for _ in range(2)]
                comm.barrier()
                return sorted(got)
            comm.send(comm.rank * 10, dest=0, tag=comm.rank)
            comm.barrier()
            return None

        res = run_mpi(body, 3)
        assert res[0] == [10, 20]

    @staticmethod
    def _matched_at(k: int) -> float:
        """Rank 1's clock when a message completes its exact receive, posted
        behind ``k`` wildcard receives the message does not match."""

        def body():
            comm = comm_world()
            sched = current_scheduler()
            if comm.rank == 0:
                sched.charge(20e-6)  # rank 1 has posted everything by then
                comm.send("x", dest=1, tag=1)
                return None
            for _ in range(k):
                comm.irecv(tag=99)  # any source, never matched
            comm.irecv(source=0, tag=1).wait()
            return sched.now()

        return run_mpi(body, 2)[1]

    def test_matching_scans_every_wildcard_receive_ahead(self):
        scan = platform_cpu("haswell").t(DEFAULT_MPI_COSTS.unexpected_scan)
        assert self._matched_at(8) - self._matched_at(1) == pytest.approx(7 * scan, rel=1e-9)

    def test_unexpected_messages_buffer(self):
        """Messages arriving before the recv is posted are not lost."""

        def body():
            comm = comm_world()
            if comm.rank == 0:
                for i in range(4):
                    comm.send(i, dest=1, tag=i)
                comm.barrier()
                return None
            # let everything arrive before posting any receive
            comm.rt.sched.sleep(100e-6)
            got = [comm.recv(source=0, tag=i) for i in range(4)]
            comm.barrier()
            return got

        res = run_mpi(body, 2)
        assert res[1] == [0, 1, 2, 3]

    def test_tag_selectivity(self):
        def body():
            comm = comm_world()
            if comm.rank == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                comm.barrier()
                return None
            second = comm.recv(source=0, tag=2)
            first = comm.recv(source=0, tag=1)
            comm.barrier()
            return (first, second)

        res = run_mpi(body, 2)
        assert res[1] == ("first", "second")

    def test_ordering_same_src_tag(self):
        def body():
            comm = comm_world()
            if comm.rank == 0:
                for i in range(5):
                    comm.send(i, dest=1, tag=0)
                comm.barrier()
                return None
            got = [comm.recv(source=0, tag=0) for _ in range(5)]
            comm.barrier()
            return got

        assert run_mpi(body, 2)[1] == [0, 1, 2, 3, 4]


class TestCollectives:
    def test_barrier(self):
        def body():
            comm = comm_world()
            for _ in range(3):
                comm.barrier()
            return True

        assert all(run_mpi(body, 5))

    def test_bcast(self):
        def body():
            comm = comm_world()
            v = comm.bcast("hello" if comm.rank == 1 else None, root=1)
            comm.barrier()
            return v

        assert run_mpi(body, 4) == ["hello"] * 4

    def test_allgather(self):
        def body():
            comm = comm_world()
            out = comm.allgather(comm.rank * comm.rank)
            comm.barrier()
            return out

        assert run_mpi(body, 4) == [[0, 1, 4, 9]] * 4

    def test_alltoallv(self):
        def body():
            comm = comm_world()
            n = comm.size
            send = [f"{comm.rank}->{d}" for d in range(n)]
            got = comm.alltoallv(send)
            comm.barrier()
            return got

        res = run_mpi(body, 4)
        for r, got in enumerate(res):
            assert got == [f"{s}->{r}" for s in range(4)]

    def test_alltoallv_with_empty_payloads(self):
        def body():
            comm = comm_world()
            n = comm.size
            send = [None] * n
            send[(comm.rank + 1) % n] = "x"
            got = comm.alltoallv(send)
            comm.barrier()
            return got

        res = run_mpi(body, 5)
        for r, got in enumerate(res):
            assert got[(r - 1) % 5] == "x"
            assert sum(1 for g in got if g == "x") == 1


class TestRma:
    def test_put_flush_visible(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 64)
            comm.barrier()
            if comm.rank == 0:
                win.lock(1)
                win.put(b"DATA", target=1, offset=8)
                win.unlock(1)
            comm.barrier()
            v = bytes(win.local_view()) if comm.rank == 1 else None
            comm.barrier()
            return v

        res = run_mpi(body, 2)
        assert res[1][8:12] == b"DATA"

    def test_many_puts_one_flush(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 4096)
            comm.barrier()
            if comm.rank == 0:
                win.lock(1)
                for i in range(16):
                    win.put(np.full(4, i, dtype=np.int64), target=1, offset=32 * i)
                win.unlock(1)
            comm.barrier()
            if comm.rank == 1:
                v = win.local_view(np.int64, 64)
                assert np.array_equal(v, np.repeat(np.arange(16), 4))
            comm.barrier()

        run_mpi(body, 2)

    def test_window_bounds_checked(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 16)
            comm.barrier()
            with pytest.raises(ValueError):
                win.put(b"0123456789abcdefgh", target=0, offset=0)
            comm.barrier()

        run_mpi(body, 2)

class TestCosts:
    def test_pipeline_eff_dips_at_8k(self):
        c = DEFAULT_MPI_COSTS
        assert c.rma_pipeline_eff(8192) < c.rma_pipeline_eff(64)
        assert c.rma_pipeline_eff(8192) < c.rma_pipeline_eff(4 << 20)
        assert c.rma_pipeline_eff(8192) == pytest.approx(1 - c.rma_dip_amplitude)

    def test_latency_window(self):
        c = DEFAULT_MPI_COSTS
        assert c.latency_window_extra(100) == 0
        assert c.latency_window_extra(512) > 0
        assert c.latency_window_extra(4096) == 0

    def test_small_put_gap_is_the_software_path(self):
        """Fig. 3a at 8 B: a blocking MPI put + flush and a blocking rput
        cross the same wire, so MPI's extra time is its software path less
        UPC++'s.  At 8 B the fitted dip adds ~1e-13 s (3e-11 s at 64 B)."""
        from repro.bench.microbench import mpi_put_latency, upcxx_put_latency
        from repro.upcxx.costs import DEFAULT_COSTS as u

        c = DEFAULT_MPI_COSTS
        gap = mpi_put_latency([8], iters=4)[8] - upcxx_put_latency([8], iters=4)[8]
        software = c.put_sw + c.flush_sw - u.rma_inject - u.completion - u.progress_poll
        assert gap == pytest.approx(software, rel=0, abs=1e-12)
        assert software == pytest.approx(0.29e-6, rel=0, abs=1e-15)


@pytest.mark.usefixtures("no_cycle_collector")
class TestTeardown:
    """A returned ``run_mpi`` holds nothing: with the cycle collector off,
    the world, every runtime and every segment (windows live there) die by
    reference counting the moment the call returns (or raises)."""

    @staticmethod
    def _job(refs, fail_on=None):
        def body():
            comm = comm_world()
            rt = comm.rt
            refs.extend(
                weakref.ref(o) for o in (rt, rt.world, rt.conduit.segment(rt.rank))
            )
            win = Win.allocate(comm, 64)
            win.local_view()[:] = comm.rank
            comm.barrier()
            assert sum(comm.allgather(comm.rank)) == sum(range(comm.size))
            if comm.rank == fail_on:
                raise ValueError("boom")
            return comm.rank

        return body

    def test_success_path(self):
        refs = []
        assert run_mpi(self._job(refs), 4) == [0, 1, 2, 3]
        assert len(refs) == 12 and all(r() is None for r in refs)

    def test_rank_failure(self):
        refs = []
        try:
            run_mpi(self._job(refs, fail_on=1), 4)
        except RankFailure:
            pass
        else:
            pytest.fail("rank 1's ValueError did not surface")
        assert len(refs) == 12 and all(r() is None for r in refs)
