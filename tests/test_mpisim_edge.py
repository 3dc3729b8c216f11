"""Edge-case tests for the MPI baseline: Issend semantics, request
management, sub-communicators, and mixed-protocol traffic."""

import numpy as np
import pytest

from repro.mpisim import Win, comm_world, run_mpi
from repro.mpisim.profile import DEFAULT_MPI_COSTS


class TestIssend:
    def test_issend_completes_only_after_match(self):
        """The synchronous send's request stays pending until the receiver
        posts a matching receive."""
        observed = {}

        def body():
            comm = comm_world()
            if comm.rank == 0:
                req = comm.issend("payload", dest=1, tag=9)
                # receiver sleeps 50us before posting: our completion must
                # reflect that delay
                t0 = comm.rt.sched.now()
                req.wait()
                observed["dt"] = comm.rt.sched.now() - t0
            else:
                comm.rt.sched.sleep(50e-6)
                got = comm.recv(source=0, tag=9)
                assert got == "payload"
            comm.barrier()

        run_mpi(body, 2, ppn=1)
        assert observed["dt"] > 40e-6

    def test_isend_completes_immediately_eager(self):
        """Contrast: plain eager isend completes at injection."""

        def body():
            comm = comm_world()
            if comm.rank == 0:
                req = comm.isend("payload", dest=1, tag=9)
                assert req.done  # buffered: immediately reusable
            else:
                comm.rt.sched.sleep(50e-6)
                comm.recv(source=0, tag=9)
            comm.barrier()

        run_mpi(body, 2, ppn=1)

    def test_issend_large_falls_back_to_rendezvous(self):
        big = np.zeros(DEFAULT_MPI_COSTS.rndv_threshold * 2, dtype=np.uint8)

        def body():
            comm = comm_world()
            if comm.rank == 0:
                req = comm.issend(big, dest=1, tag=1)
                assert not req.done  # rendezvous: waits for CTS
                req.wait()
            else:
                got = comm.recv(source=0, tag=1)
                assert len(got) == len(big)
            comm.barrier()

        run_mpi(body, 2)


class TestRequests:
    def test_wait_all_returns_values_in_request_order(self):
        def body():
            comm = comm_world()
            if comm.rank == 0:
                reqs = [comm.irecv(source=1, tag=i) for i in range(4)]
                comm.rt.wait_all(reqs)
                assert [r.value for r in reqs] == [0, 10, 20, 30]
            else:
                for i in range(4):
                    comm.send(i * 10, dest=0, tag=i)
            comm.barrier()

        run_mpi(body, 2)

    def test_progress_polls_complete_a_pending_receive(self):
        def body():
            comm = comm_world()
            if comm.rank == 0:
                req = comm.irecv(source=1, tag=0)
                while not req.done:
                    comm.rt.progress()  # each poll may land the message
                assert req.value == "done"
            else:
                comm.rt.sched.sleep(10e-6)
                comm.send("done", dest=0, tag=0)
            comm.barrier()

        run_mpi(body, 2)


class TestSubCommunicators:
    def test_sub_comm_collectives(self):
        def body():
            comm = comm_world()
            me = comm.rank
            evens = comm.sub([0, 2])
            odds = comm.sub([1, 3])
            mine = evens if me % 2 == 0 else odds
            if me in (0, 2) or me in (1, 3):
                total = sum(mine.allgather(me))
            comm.barrier()
            return total

        res = run_mpi(body, 4)
        assert res[0] == res[2] == 2
        assert res[1] == res[3] == 4

    def test_sub_comm_p2p_rank_translation(self):
        def body():
            comm = comm_world()
            sub = comm.sub([2, 0])  # reordered!
            if comm.rank == 2:
                assert sub.rank == 0
                sub.send("x", dest=1)  # sub rank 1 == world rank 0
            elif comm.rank == 0:
                assert sub.rank == 1
                assert sub.recv(source=0) == "x"
            comm.barrier()

        run_mpi(body, 3)


class TestMixedTraffic:
    def test_rma_and_p2p_interleave(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 64)
            comm.barrier()
            if comm.rank == 0:
                win.lock(1)
                win.put(b"RMA!", target=1, offset=0)
                comm.send("P2P!", dest=1, tag=5)
                win.flush(1)
                win.unlock(1)
            else:
                msg = comm.recv(source=0, tag=5)
                assert msg == "P2P!"
            comm.barrier()
            return bytes(win.local_view()[:4]) if comm.rank == 1 else None

        res = run_mpi(body, 2)
        assert res[1] == b"RMA!"

    def test_many_windows_coexist(self):
        def body():
            comm = comm_world()
            wins = [Win.allocate(comm, 32) for _ in range(3)]
            comm.barrier()
            if comm.rank == 0:
                for i, w in enumerate(wins):
                    w.lock(1)
                    w.put(bytes([i + 1] * 4), target=1)
                    w.unlock(1)
            comm.barrier()
            if comm.rank == 1:
                for i, w in enumerate(wins):
                    assert w.local_view()[0] == i + 1
            comm.barrier()

        run_mpi(body, 2)

    def test_eager_vs_rendezvous_ordering_preserved(self):
        """A small eager message and a big rendezvous message from the same
        (src, tag) arrive in posted order."""
        big = np.arange(DEFAULT_MPI_COSTS.rndv_threshold, dtype=np.uint8)

        def body():
            comm = comm_world()
            if comm.rank == 0:
                comm.isend("first-small", dest=1, tag=7)
                comm.isend(big, dest=1, tag=7).wait()
                comm.barrier()
                return None
            first = comm.recv(source=0, tag=7)
            second = comm.recv(source=0, tag=7)
            comm.barrier()
            return (first, len(second))

        res = run_mpi(body, 2)
        assert res[1][0] == "first-small"
        assert res[1][1] == len(big)


class TestWinValidation:
    def test_zero_size_window_rejected(self):
        def body():
            comm = comm_world()
            with pytest.raises(ValueError):
                Win.allocate(comm, 0)
            comm.barrier()

        # Win.allocate is collective: call the failing path on all ranks
        run_mpi(body, 2)

    def test_target_out_of_range(self):
        def body():
            comm = comm_world()
            win = Win.allocate(comm, 16)
            comm.barrier()
            with pytest.raises(ValueError):
                win.put(b"x", target=5)
            comm.barrier()

        run_mpi(body, 2)
