"""Tests for memory kinds: device segments and the generalized copy."""

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.upcxx.errors import GlobalPtrError


def _dev_ptrs(dtype=np.float64, n=16):
    """Every rank makes a device array and broadcasts the pointer."""
    dev = upcxx.Device()
    g = dev.allocate(dtype, n)
    ptrs = [upcxx.broadcast(g, root=r).wait() for r in range(upcxx.rank_n())]
    return dev, g, ptrs


class TestDevice:
    def test_allocate_device_pointer(self):
        def body():
            dev = upcxx.Device()
            g = dev.allocate(np.float64, 10)
            assert g.kind == "device"
            assert g.rank == upcxx.rank_me()
            assert (g + 3).kind == "device"
            dev.deallocate(g)
            assert dev.usage()["in_use"] == 0

        upcxx.run_spmd(body, 2)

    def test_device_local_view_forbidden(self):
        def body():
            dev = upcxx.Device()
            g = dev.allocate(np.float64, 4)
            with pytest.raises(GlobalPtrError):
                g.local()

        upcxx.run_spmd(body, 1)

    def test_rput_into_device_memory_rejected_by_kind(self):
        """Plain rput/rget (and VIS, atomics) address host segments; device
        traffic goes via copy.  A device pointer used to be accepted and
        hit the *host* segment at the same offset."""

        def body():
            dev = upcxx.Device()
            host = upcxx.new_array(np.int64, 2)
            host.local()[:] = 7
            g = dev.allocate(np.int64, 2)
            assert g.offset == host.offset  # the aliasing the check prevents
            with pytest.raises(GlobalPtrError):
                g.local()
            with pytest.raises(GlobalPtrError, match="upcxx.copy"):
                upcxx.rput(np.zeros(2, np.int64), g)
            with pytest.raises(GlobalPtrError, match="upcxx.copy"):
                upcxx.rget(g)
            with pytest.raises(GlobalPtrError, match="upcxx.copy"):
                upcxx.rput_irregular([(g, np.zeros(2, np.int64))])
            with pytest.raises(GlobalPtrError, match="upcxx.copy"):
                upcxx.rget_irregular([g])
            with pytest.raises(GlobalPtrError, match="upcxx.copy"):
                upcxx.AtomicDomain(["store"], np.int64).store(g, 0)
            assert host.local().tolist() == [7, 7]
            # the supported route still works
            upcxx.copy(np.array([1, 2]), g).wait()
            back = upcxx.new_array(np.int64, 2)
            upcxx.copy(g, back).wait()
            assert back.local().tolist() == [1, 2] and host.local().tolist() == [7, 7]

        upcxx.run_spmd(body, 1)

    def test_foreign_deallocate_rejected(self):
        def body():
            dev = upcxx.Device()
            host_g = upcxx.new_array(np.float64, 2)
            with pytest.raises(upcxx.UpcxxError):
                dev.deallocate(host_g)

        upcxx.run_spmd(body, 1)


class TestCopy:
    def test_host_to_device_to_host_local(self):
        def body():
            dev = upcxx.Device()
            d = dev.allocate(np.float64, 8)
            src = np.arange(8.0)
            upcxx.copy(src, d).wait()
            back = upcxx.new_array(np.float64, 8)
            upcxx.copy(d, back).wait()
            assert np.array_equal(back.local(), src)

        upcxx.run_spmd(body, 2)

    def test_host_array_to_remote_device(self):
        def body():
            me = upcxx.rank_me()
            _dev, _g, ptrs = _dev_ptrs()
            upcxx.barrier()
            if me == 0:
                upcxx.copy(np.full(16, 7.5), ptrs[1]).wait()
            upcxx.barrier()
            # owner pulls it down to host to check
            host = upcxx.new_array(np.float64, 16)
            upcxx.copy(ptrs[me], host).wait()
            upcxx.barrier()
            return float(host.local()[0])

        res = upcxx.run_spmd(body, 2)
        assert res[1] == 7.5

    def test_device_to_remote_device(self):
        def body():
            me = upcxx.rank_me()
            _dev, g, ptrs = _dev_ptrs()
            if me == 0:
                upcxx.copy(np.arange(16.0), g).wait()  # fill my device
                upcxx.copy(ptrs[0], ptrs[1]).wait()  # device -> remote device
            upcxx.barrier()
            host = upcxx.new_array(np.float64, 16)
            upcxx.copy(ptrs[me], host).wait()
            upcxx.barrier()
            return float(host.local().sum())

        res = upcxx.run_spmd(body, 2)
        assert res[1] == float(np.arange(16.0).sum())

    def test_host_to_remote_host_third_party(self):
        """copy() between two remote hosts routes via the initiator."""

        def body():
            me = upcxx.rank_me()
            g = upcxx.new_array(np.float64, 4)
            g.local()[:] = me
            ptrs = [upcxx.broadcast(g, root=r).wait() for r in range(3)]
            upcxx.barrier()
            if me == 0:
                upcxx.copy(ptrs[1], ptrs[2]).wait()  # 1 -> 2, initiated by 0
            upcxx.barrier()
            return float(g.local()[0])

        res = upcxx.run_spmd(body, 3)
        assert res[2] == 1.0

    def test_device_copy_slower_than_host_copy(self):
        """The PCIe hop must cost simulated time."""
        times = {}

        def body():
            me = upcxx.rank_me()
            dev = upcxx.Device()
            d = dev.allocate(np.float64, 1024)
            h = upcxx.new_array(np.float64, 1024)
            h2 = upcxx.new_array(np.float64, 1024)
            src = np.ones(1024)
            upcxx.barrier()
            if me == 0:
                t0 = upcxx.sim_now()
                upcxx.copy(src, h).wait()
                times["host"] = upcxx.sim_now() - t0
                t0 = upcxx.sim_now()
                upcxx.copy(src, d).wait()
                times["device"] = upcxx.sim_now() - t0
            upcxx.barrier()

        upcxx.run_spmd(body, 2)
        # the device path crosses PCIe: >= link latency + 8KiB transfer
        assert times["device"] > 2.3e-6
        assert times["device"] > times["host"]

    def test_dtype_mismatch_rejected(self):
        def body():
            dev = upcxx.Device()
            d = dev.allocate(np.float64, 4)
            with pytest.raises(GlobalPtrError):
                upcxx.copy(np.arange(4, dtype=np.int32), d)

        upcxx.run_spmd(body, 1)

    def test_count_limits_checked(self):
        def body():
            dev = upcxx.Device()
            d = dev.allocate(np.float64, 4)
            with pytest.raises(GlobalPtrError):
                upcxx.copy(np.zeros(8), d)
            upcxx.copy(np.zeros(8), d, count=4).wait()  # explicit count OK

        upcxx.run_spmd(body, 1)

    def test_remote_copy_is_as_reliable_and_as_slow_as_rput_under_faults(self):
        """A copy's wire legs are the conduit's put and get, so a fault plan
        drops and retransmits its frames exactly as it does an rput's: the
        same blocking loop takes the same simulated time and retransmits
        the same frames.  (When copy had a wire model of its own, it
        bypassed reliable delivery: 91.5 µs and 14 retransmitted frames
        here, against 367.5 µs and 55 for the rputs.)"""

        def run(op):
            out = {}

            def body():
                landing = upcxx.new_array(np.uint8, 512)
                dest = upcxx.broadcast(landing, root=1).wait()
                upcxx.barrier()
                if upcxx.rank_me() == 0:
                    payload = np.zeros(512, np.uint8)
                    t0 = upcxx.sim_now()
                    for _ in range(50 if op else 0):
                        op(payload, dest).wait()
                    out["t"] = upcxx.sim_now() - t0
                upcxx.barrier()

            stats = {}
            upcxx.run_spmd(body, 2, ppn=1, faults="seed=3,drop=0.3", sched_stats=stats)
            return out["t"], stats["frames_retransmitted"]

        t_copy, retx_copy = run(upcxx.copy)
        assert (t_copy, retx_copy) == run(upcxx.rput)
        assert retx_copy > run(None)[1]

    def test_copy_in_flight_is_in_actq(self):
        def body():
            me = upcxx.rank_me()
            _dev, _g, ptrs = _dev_ptrs()
            upcxx.barrier()
            if me == 0:
                rt = upcxx.runtime_here()
                fut = upcxx.copy(np.arange(16.0), ptrs[1])
                assert [str(op) for op in rt.actQ.values()] == [str(("copy", 128, 1))]
                fut.wait()
                assert not rt.actQ
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_copy_with_promise_completion(self):
        def body():
            dev = upcxx.Device()
            d = dev.allocate(np.float64, 8)
            p = upcxx.Promise()
            upcxx.copy(np.arange(8.0), d, cx=upcxx.operation_cx.as_promise(p))
            upcxx.copy(np.arange(8.0), d, cx=upcxx.operation_cx.as_promise(p))
            p.finalize().wait()
            host = upcxx.new_array(np.float64, 8)
            upcxx.copy(d, host).wait()
            assert np.array_equal(host.local(), np.arange(8.0))

        upcxx.run_spmd(body, 1)
