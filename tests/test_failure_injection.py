"""Failure-injection tests: errors raised deep inside the stack must
surface cleanly (with rank attribution), never hang or corrupt the run,
plus the new MPI-3 accumulate operations.

``TestErrorPropagation`` pins the error verdict: exception type,
failing-rank attribution, and the original cause's type and message."""

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.mpisim import Win, comm_world, run_mpi
from repro.sim.errors import DeadlockError, RankFailure


class TestErrorPropagation:
    def test_exception_in_rpc_handler_surfaces(self):
        def bad_handler():
            raise RuntimeError("handler exploded")

        def body():
            if upcxx.rank_me() == 0:
                upcxx.rpc(1, bad_handler).wait()
            upcxx.barrier()

        with pytest.raises(RankFailure) as ei:
            upcxx.run_spmd(body, 2)
        # the failure is attributed to the EXECUTING rank (the target)
        assert ei.value.rank == 1
        assert isinstance(ei.value.__cause__, RuntimeError)
        assert "handler exploded" in str(ei.value.__cause__)

    def test_exception_in_then_callback_surfaces(self):
        def body():
            upcxx.make_future(1).then(lambda x: 1 / 0)

        with pytest.raises(RankFailure) as ei:
            upcxx.run_spmd(body, 2)
        assert isinstance(ei.value.__cause__, ZeroDivisionError)

    def test_exception_mid_collective_aborts_everyone(self):
        def body():
            me = upcxx.rank_me()
            upcxx.barrier()
            if me == 2:
                raise ValueError("rank 2 dies")
            # others head into another barrier that can never complete;
            # the abort must unwind them rather than deadlock
            upcxx.barrier()

        with pytest.raises(RankFailure) as ei:
            upcxx.run_spmd(body, 4)
        assert ei.value.rank == 2
        assert isinstance(ei.value.__cause__, ValueError)
        assert "rank 2 dies" in str(ei.value.__cause__)

    def test_barrier_mismatch_is_detected_as_deadlock(self):
        def body():
            if upcxx.rank_me() == 0:
                upcxx.barrier()  # nobody else joins
            # other ranks return immediately

        with pytest.raises(DeadlockError):
            upcxx.run_spmd(body, 3)

    def test_mpi_recv_without_send_deadlocks_cleanly(self):
        def body():
            comm = comm_world()
            if comm.rank == 0:
                comm.recv(source=1, tag=1)  # never sent

        with pytest.raises(DeadlockError) as ei:
            run_mpi(body, 2)
        assert "MPI_Waitall" in str(ei.value)

    def test_segment_exhaustion_inside_rpc(self):
        """An allocation failure inside an RPC handler propagates with the
        executing rank's id."""
        from repro.gasnet.segment import SegmentAllocationError

        def hog():
            upcxx.allocate(1 << 40)

        def body():
            if upcxx.rank_me() == 0:
                upcxx.rpc(1, hog).wait()
            upcxx.barrier()

        with pytest.raises(RankFailure) as ei:
            upcxx.run_spmd(body, 2)
        assert ei.value.rank == 1
        assert isinstance(ei.value.__cause__, SegmentAllocationError)


class TestMpiAccumulate:
    def test_accumulate_sums_elementwise(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 8 * 8)
            win.local_view(np.float64)[:] = 1.0
            comm.barrier()
            if comm.rank == 0:
                win.lock(1)
                win.accumulate(np.arange(8.0), target=1, op="+")
                win.accumulate(np.arange(8.0), target=1, op="+")
                win.unlock(1)
            comm.barrier()
            return win.local_view(np.float64).copy()

        res = run_mpi(body, 2)
        assert np.allclose(res[1], 1.0 + 2 * np.arange(8.0))

    def test_accumulate_max(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 8 * 4)
            win.local_view(np.float64)[:] = 5.0
            comm.barrier()
            if comm.rank == 0:
                win.lock(1)
                win.accumulate(np.array([1.0, 9.0, 5.0, 7.0]), target=1, op="max")
                win.unlock(1)
            comm.barrier()
            return win.local_view(np.float64).copy()

        res = run_mpi(body, 2)
        assert np.allclose(res[1], [5.0, 9.0, 5.0, 7.0])

    def test_accumulate_from_many_ranks_no_lost_updates(self):
        """Concurrent accumulates are applied atomically elementwise."""

        def body():
            comm = comm_world()
            win = Win.allocate(comm, 8)
            win.local_view(np.int64)[:] = 0
            comm.barrier()
            win.lock(0)
            for _ in range(5):
                win.accumulate(np.array([1]), target=0, op="+", dtype=np.int64)
            win.unlock(0)
            comm.barrier()
            return int(win.local_view(np.int64)[0])

        res = run_mpi(body, 4)
        assert res[0] == 20

    def test_fetch_and_op_tickets(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 8)
            win.local_view(np.int64)[:] = 0
            comm.barrier()
            win.lock(0)
            r = win.fetch_and_op(1, target=0, op="fetch_add", dtype=np.int64)
            win.flush(0)
            win.unlock(0)
            ticket = int(r.as_array(np.int64)[0])
            comm.barrier()
            total = comm.allreduce(1, "+")
            tickets = comm.allgather(ticket)
            comm.barrier()
            return (sorted(tickets), total)

        res = run_mpi(body, 4)
        assert res[0][0] == [0, 1, 2, 3]  # unique, gap-free tickets

    def test_unsupported_op_rejected(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 8)
            comm.barrier()
            with pytest.raises(ValueError):
                win.accumulate(np.array([1.0]), target=0, op="xor")
            comm.barrier()

        run_mpi(body, 2)
