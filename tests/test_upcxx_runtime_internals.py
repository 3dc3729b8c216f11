"""Tests pinning the §III progress-engine structure: defQ/actQ/compQ
observability, internal vs user progress, and charge accounting."""

import gc
import weakref

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.sim.errors import RankFailure


def _exchange(n=4, dtype=np.float64):
    g = upcxx.new_array(dtype, n)
    return g, [upcxx.broadcast(g, root=r).wait() for r in range(upcxx.rank_n())]


class TestQueues:
    def test_actq_holds_inflight_op(self):
        """Between injection and completion, the operation sits in actQ."""

        def body():
            me = upcxx.rank_me()
            _g, ptrs = _exchange(1024)
            upcxx.barrier()
            rt = upcxx.runtime_here()
            if me == 0:
                fut = upcxx.rput(np.zeros(1024), ptrs[1])
                # injected (defQ drained by internal progress) but the ack
                # has not come back yet: active state
                assert len(rt.actQ) == 1
                assert "rput" in str(next(iter(rt.actQ.values())))
                fut.wait()
                assert len(rt.actQ) == 0
            upcxx.barrier()

        upcxx.run_spmd(body, 2, ppn=1)

    def test_internal_progress_promotes_but_does_not_execute(self):
        """§III: completions move to compQ at internal progress; only user
        progress drains compQ."""

        def body():
            me = upcxx.rank_me()
            _g, ptrs = _exchange(8)
            upcxx.barrier()
            rt = upcxx.runtime_here()
            if me == 0:
                p = upcxx.Promise()
                upcxx.rput(np.zeros(8), ptrs[1], cx=upcxx.operation_cx.as_promise(p))
                fut = p.finalize()
                # let the ack arrive without making user progress
                rt.sched.sleep(20e-6)
                rt.internal_progress()
                assert len(rt.compQ) >= 1  # promoted, not executed
                assert not fut.ready()
                upcxx.progress()  # user progress: executes compQ
                assert fut.ready()
            upcxx.barrier()

        upcxx.run_spmd(body, 2, ppn=1)

    def test_one_record_from_defq_to_fulfilment(self):
        """The rput's record is the actQ entry, then the staged/compQ item;
        completing it a second time raises; user progress fulfils it and
        hands it to the runtime's free list, where the next rput finds it."""
        from repro.upcxx.rma import RmaOp

        def body():
            me = upcxx.rank_me()
            _g, ptrs = _exchange(8)
            upcxx.barrier()
            rt = upcxx.runtime_here()
            if me == 0:
                del rt._op_pool[:]  # the exchange above left a record or two
                p = upcxx.Promise()
                upcxx.rput(np.ones(8), ptrs[1], cx=upcxx.operation_cx.as_promise(p))
                (op,) = rt.actQ.values()
                assert type(op) is RmaOp and str(op) == str(("rput", 64, 1))
                assert not op.done and op.promise is p
                rt.sched.sleep(20e-6)  # the ack arrives; no user progress yet
                rt.internal_progress()
                assert op in rt.compQ and op.done and op.t_staged == op.time_done
                with pytest.raises(RuntimeError, match="completed twice"):
                    op.complete(rt.now())
                assert rt._op_pool == []
                upcxx.progress()
                assert rt._op_pool == [op] and not rt.actQ
                # parked clean: nothing of the finished operation is kept alive
                assert (op.promise, op.payload, op.data, op.remote_rpc, op.done) == (
                    None, None, None, None, False)
                fut = upcxx.rget(ptrs[1])
                assert rt.actQ[op.opid] is op and rt._op_pool == []  # reused
                assert np.array_equal(fut.wait(), np.ones(8))
                # a bare conduit handle is not an RmaOp and never joins the pool
                h = rt.conduit.put_nb(0, 1, ptrs[1].offset, bytes(8))
                upcxx.rput(np.zeros(8), ptrs[1]).wait()
                assert h.done and h is not op and rt._op_pool == [op]
                p.finalize().wait()
            upcxx.barrier()

        upcxx.run_spmd(body, 2, ppn=1)

    def test_progress_counters(self):
        def body():
            rt = upcxx.runtime_here()
            before = rt.n_progress_calls
            upcxx.progress()
            upcxx.progress()
            assert rt.n_progress_calls == before + 2

        upcxx.run_spmd(body, 1)


class TestChargeAccounting:
    def test_rput_charges_injection_cost(self):
        def body():
            _g, ptrs = _exchange(8)
            upcxx.barrier()
            rt = upcxx.runtime_here()
            t0 = upcxx.sim_now()
            upcxx.rput(np.zeros(8), ptrs[(upcxx.rank_me() + 1) % 2], cx=upcxx.operation_cx.as_promise(upcxx.Promise()))
            dt = upcxx.sim_now() - t0
            # injection costs CPU immediately (>= the modeled inject cost)
            assert dt >= rt.cpu.t(rt.costs.rma_inject) * 0.99
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_compute_charges_exactly(self):
        def body():
            t0 = upcxx.sim_now()
            upcxx.compute(123e-6)
            return upcxx.sim_now() - t0

        dt = upcxx.run_spmd(body, 1)[0]
        assert dt == pytest.approx(123e-6)

    def test_knl_charges_scale_up(self):
        def one(platform):
            def body():
                rt = upcxx.runtime_here()
                t0 = upcxx.sim_now()
                rt.charge_sw(1e-6)
                return upcxx.sim_now() - t0

            return upcxx.run_spmd(body, 1, platform=platform)[0]

        assert one("knl") == pytest.approx(one("haswell") * 2.6)


class TestWaitSemantics:
    def test_wait_on_ready_future_is_cheap(self):
        def body():
            f = upcxx.make_future(1)
            t0 = upcxx.sim_now()
            f.wait()
            return upcxx.sim_now() - t0

        dt = upcxx.run_spmd(body, 1)[0]
        assert dt == 0.0  # no progress spin needed

    def test_nested_waits_inside_rpc_handler(self):
        """An RPC body may itself wait on communication (runtime reentry)."""

        def body():
            me = upcxx.rank_me()
            _g, ptrs = _exchange(4)
            upcxx.barrier()

            def handler(dest):
                # executes on rank 1; performs its own blocking rput to rank 2
                upcxx.rput(np.full(4, 9.0), dest).wait()
                return "stored"

            if me == 0:
                got = upcxx.rpc(1, handler, ptrs[2]).wait()
                assert got == "stored"
            upcxx.barrier()
            if me == 2:
                assert _g.local()[0] == 9.0
            upcxx.barrier()

        upcxx.run_spmd(body, 3)

    def test_then_callbacks_run_in_attachment_order(self):
        def body():
            log = []
            p = upcxx.Promise()
            p.require_anonymous(1)
            f = p.finalize()
            for i in range(4):
                f.then(lambda i=i: log.append(i))
            p.fulfill_anonymous(1)
            return log

        assert upcxx.run_spmd(body, 1) == [[0, 1, 2, 3]]


class TestWaitQuietBeforePark:
    """``wait_quiet(before_park=...)``: the hook marks the moment a rank
    has served its inbox and is about to sleep."""

    def test_hook_runs_only_when_the_rank_would_block(self):
        def body():
            rt = upcxx.runtime_here()
            me = upcxx.rank_me()
            flag = upcxx.DistObject([False])
            calls = []
            upcxx.barrier()
            if me == 1:
                upcxx.rpc_ff(0, lambda d: d.value.__setitem__(0, True), flag)
            if me == 0:
                # predicate already true: no progress, no hook
                rt.wait_quiet(lambda: True, "test", lambda: calls.append("true"))
                # the AM is delivered while this rank is inattentive, so the
                # wait's own progress() makes the predicate true: no hook
                rt.sched.sleep(20e-6)
                assert not flag.value[0]
                rt.wait_quiet(lambda: flag.value[0], "test", lambda: calls.append("served"))
                assert flag.value[0]
                # nothing to serve and a timer 10us out: about to block
                t = rt.now() + 10e-6
                rt.sched.post_at(t, lambda: rt.sched.wake(0, t))
                rt.wait_quiet(lambda: rt.now() >= t, "test", lambda: calls.append("park"))
            upcxx.barrier()
            return calls

        calls = upcxx.run_spmd(body, 2, ppn=1)[0]
        assert calls and set(calls) == {"park"}

    def test_predicate_is_rechecked_after_the_hook(self):
        """A hook that satisfies the predicate must not be followed by a
        block: nothing would ever wake this rank (the run would end in the
        scheduler's deadlock report)."""

        def body():
            rt = upcxx.runtime_here()
            done = []
            rt.wait_quiet(lambda: bool(done), "test", lambda: done.append(1))
            return done

        assert upcxx.run_spmd(body, 1) == [[1]]

    def test_am_arriving_while_the_hook_runs_is_served_before_sleeping(self):
        """No lost wake-up: the hook charges CPU, a reply lands meanwhile,
        and it is that reply — nothing later — that ends the wait."""

        def body():
            rt = upcxx.runtime_here()
            me = upcxx.rank_me()
            flag = upcxx.DistObject([False])
            hook_windows = []
            upcxx.barrier()
            t_done = None
            if me == 0:
                def hook():
                    t0 = rt.now()
                    if not hook_windows:
                        # rank 1 bounces this straight back (it sits in the
                        # barrier below, attentive); the charge outlasts
                        # the round trip
                        upcxx.rpc_ff(1, lambda d: upcxx.rpc_ff(
                            0, lambda d: d.value.__setitem__(0, True), d), flag)
                    rt.sched.charge(100e-6)
                    hook_windows.append((t0, rt.now()))

                rt.wait_quiet(lambda: flag.value[0], "test", hook)
                t_done = rt.now()
            upcxx.barrier()
            return hook_windows, t_done

        windows, t_done = upcxx.run_spmd(body, 2, ppn=1)[0]
        assert len(windows) == 1  # served on the first wake, never parked again
        assert t_done >= windows[0][1]


class TestSegmentPressure:
    def test_segment_exhaustion_raises_cleanly(self):
        from repro.gasnet.segment import SegmentAllocationError

        def body():
            with pytest.raises(SegmentAllocationError):
                upcxx.allocate(1 << 30)  # bigger than the segment

        upcxx.run_spmd(body, 1)

    def test_churn_reuses_memory(self):
        def body():
            peak = 0
            for _ in range(200):
                g = upcxx.new_array(np.float64, 1024)
                peak = max(peak, upcxx.segment_usage()["in_use"])
                upcxx.deallocate(g)
            assert upcxx.segment_usage()["in_use"] == 0
            return peak

        peak = upcxx.run_spmd(body, 1)[0]
        assert peak <= 2 * 8 * 1024  # no leak growth


def test_in_spmd_is_true_exactly_inside_a_upcxx_body():
    """``in_spmd`` reads the scheduler's client slot, as ``current_runtime``
    does: false outside any simulation and inside an MPI-model one."""
    from repro.mpisim import run_mpi

    assert not upcxx.in_spmd()
    assert upcxx.run_spmd(upcxx.in_spmd, 2) == [True, True]
    assert run_mpi(upcxx.in_spmd, 2) == [False, False]


@pytest.mark.usefixtures("no_cycle_collector")
class TestTeardown:
    """A returned ``run_spmd`` holds nothing: with the cycle collector off,
    the world, every runtime and every segment die by reference counting
    the moment the call returns (or raises)."""

    @staticmethod
    def _nothing_parked_points_into_the_job():
        """No put/get record outlives the job (each runtime's free list went
        with it; records still in flight sat on queues the teardown empties),
        and what is parked on the process-wide free lists holds no runtime,
        promise, segment, conduit, scheduler, payload or closure (every
        slot of the record's whole class hierarchy is read)."""
        from repro.gasnet.conduit import Conduit
        from repro.gasnet.handle import Transfer
        from repro.gasnet.segment import Segment
        from repro.sim.coop import Scheduler
        from repro.upcxx.rpc import RpcOp
        from repro.upcxx.runtime import Runtime

        assert not [o for o in gc.get_objects() if isinstance(o, Transfer)]
        job_owned = (
            Runtime, Conduit, Scheduler, upcxx.Promise, upcxx.Future, Segment,
            bytes, bytearray, memoryview,
        )
        assert RpcOp._pool, "the job parked no rpc record"
        for item in RpcOp._pool:
            for cls in type(item).__mro__:
                for slot in cls.__dict__.get("__slots__", ()):
                    value = getattr(item, slot, None)
                    assert not isinstance(value, job_owned) and not callable(value), (item, slot)

    @staticmethod
    def _job(refs, after=lambda: None):
        """An SPMD body that exercises the back-pointing parts of the
        library (teams, dist_objects, rpc, rma, a device segment, the
        master persona) and leaves weakrefs to the job's objects in
        ``refs``."""

        def body():
            rt = upcxx.runtime_here()
            me, n = rt.rank, upcxx.rank_n()
            dev = upcxx.Device(segment_size=1 << 20)
            refs.extend(
                weakref.ref(o)
                for o in (rt, rt.world, rt.conduit.segment(me), dev.segment)
            )
            g = upcxx.new_array(np.float64, 8)
            g.local()[:] = me
            dobj = upcxx.DistObject(g)
            upcxx.barrier()
            peer = dobj.fetch((me + 1) % n).wait()
            upcxx.rput(np.arange(8.0), peer).wait()
            assert upcxx.rget(peer).wait()[7] == 7.0
            assert upcxx.rpc((me + 1) % n, lambda x: x + 1, me).wait() == me + 1
            upcxx.lpc(lambda: None).wait()
            upcxx.barrier()
            after()
            # left in flight on purpose: one record still on the event heap,
            # one a promise nobody waits for, and a copy (holding a segment)
            # in its get leg
            upcxx.rput(np.zeros(8), peer)
            upcxx.rget(peer, cx=upcxx.operation_cx.as_promise(upcxx.Promise()))
            upcxx.copy(peer, dev.allocate(np.float64, 8))
            return me

        return body

    def test_success_path(self):
        refs = []
        assert upcxx.run_spmd(self._job(refs), 4) == [0, 1, 2, 3]
        assert len(refs) == 16 and all(r() is None for r in refs)
        self._nothing_parked_points_into_the_job()

    def test_rank_failure(self):
        def fail_on_one():
            if upcxx.rank_me() == 1:
                raise ValueError("boom")

        refs = []
        try:
            upcxx.run_spmd(self._job(refs, after=fail_on_one), 4)
        except RankFailure:
            pass
        else:
            pytest.fail("rank 1's ValueError did not surface")
        assert len(refs) == 16 and all(r() is None for r in refs)
        self._nothing_parked_points_into_the_job()

    def test_survivable_crash(self):
        refs = []

        def body():
            rt = upcxx.runtime_here()
            refs.extend(
                weakref.ref(o) for o in (rt, rt.world, rt.conduit.segment(rt.rank))
            )
            g = upcxx.new_array(np.float64, 8)
            g.local()[:] = rt.rank
            nxt = [upcxx.broadcast(g, root=r).wait() for r in range(4)][(rt.rank + 1) % 4]
            for _ in range(20):
                upcxx.compute(1e-5)
                # rank 0's puts target the rank that dies: once it has, their
                # records can never complete and stay on actQ to the end
                upcxx.rput(np.zeros(8), nxt)
                upcxx.progress()
            return rt.rank

        got = upcxx.run_spmd(body, 4, faults="seed=1,crash=1@5e-5,survive=1")
        assert got == [0, None, 2, 3]  # rank 1 died, the job was served through
        assert len(refs) == 12 and all(r() is None for r in refs)
        self._nothing_parked_points_into_the_job()
