"""Failure-injection tests: errors raised deep inside the stack must
surface cleanly (with rank attribution), never hang or corrupt the run.

``TestErrorPropagation`` pins the error verdict: exception type,
failing-rank attribution, and the original cause's type and message."""

import pytest

import repro.upcxx as upcxx
from repro.mpisim import comm_world, run_mpi
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
