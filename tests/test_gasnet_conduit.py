"""Integration tests for the conduit over the DES: put/get/AM/AMO timing."""

import numpy as np
import pytest

from repro.gasnet.conduit import Conduit
from repro.gasnet.machine import Machine
from repro.gasnet.network import AriesNetwork, PATH_BTE, PATH_FMA
from repro.sim.coop import Scheduler, current_scheduler


def _mkconduit(sched, n, ppn=1):
    return Conduit(sched, Machine.for_ranks(n, ppn), AriesNetwork(), segment_size=1 << 20)


def _wait(sched, handle, rank):
    handle.on_complete(lambda h: sched.wake(rank, h.time_done))
    while not handle.done:
        sched.block("wait handle")
    return handle


def test_put_transfers_bytes_and_completes_after_rtt():
    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)
    net = conduit.network

    def body(r):
        s = current_scheduler()
        if r == 0:
            seg1 = conduit.segment(1)
            off = seg1.allocate(16)
            h = conduit.put_nb(0, 1, off, b"0123456789abcdef", PATH_FMA)
            _wait(s, h, 0)
            assert seg1.read(off, 16) == b"0123456789abcdef"
            # completion after at least 2 one-way latencies
            assert s.now() >= 2 * net.latency(False)
            return round(h.time_done * 1e9)
        return None

    res = sched.run(body)
    assert res[0] is not None and res[0] > 0


def test_get_returns_remote_bytes():
    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)

    def body(r):
        s = current_scheduler()
        seg = conduit.segment(1)
        if r == 1:
            off = seg.allocate(8)
            seg.write(off, b"DATADATA")
            s.rank_env(0)["off"] = off  # out-of-band rendezvous for the test
            s.sleep(1e-3)  # stay alive; one-sided get needs no target action
        else:
            s.sleep(1e-6)  # let rank 1 publish
            off = s.rank_env(0)["off"]
            h = conduit.get_nb(0, 1, off, 8)
            _wait(s, h, 0)
            assert h.data == b"DATADATA"
            return True

    assert sched.run(body)[0] is True


def test_am_delivery_requires_target_poll():
    """An AM sits in the inbox until the target polls it."""
    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)

    def body(r):
        s = current_scheduler()
        if r == 0:
            conduit.am_send(0, 1, "test.ping", {"x": 42}, nbytes=64)
        else:
            inbox = conduit.inbox(1)
            while not inbox.has_due(s.now()):
                s.block("awaiting AM")
            msg = inbox.poll(s.now())
            assert msg is not None
            assert msg.tag == "test.ping"
            assert msg.payload["x"] == 42
            assert msg.src == 0
            return msg.arrival

    arr = sched.run(body)[1]
    assert arr > 0


def test_am_arrival_time_respects_wire_model():
    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)
    net = conduit.network

    def body(r):
        s = current_scheduler()
        if r == 0:
            conduit.am_send(0, 1, "t", None, nbytes=1024)
        else:
            inbox = conduit.inbox(1)
            while not inbox.has_due(s.now()):
                s.block("awaiting AM")
            msg = inbox.poll(s.now())
            expected = net.occupancy(1024, PATH_FMA, False) + net.latency(False)
            assert msg.arrival == pytest.approx(expected)

    sched.run(body)


def test_nic_occupancy_serializes_flood():
    """Two back-to-back puts: the second's completion is pushed out."""
    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)
    net = conduit.network
    size = 64 * 1024

    def body(r):
        s = current_scheduler()
        if r == 0:
            seg = conduit.segment(1)
            off1, off2 = seg.allocate(size), seg.allocate(size)
            h1 = conduit.put_nb(0, 1, off1, bytes(size), PATH_BTE)
            h2 = conduit.put_nb(0, 1, off2, bytes(size), PATH_BTE)
            _wait(s, h2, 0)
            assert h1.done
            occ = net.occupancy(size, PATH_BTE, False)
            # second transfer starts only after the first finishes injecting
            assert h2.time_done - h1.time_done == pytest.approx(occ)

    sched.run(body)


def test_intra_node_faster_than_inter_node():
    def one(ppn):
        sched = Scheduler(2)
        conduit = _mkconduit(sched, 2, ppn=ppn)
        out = {}

        def body(r):
            s = current_scheduler()
            if r == 0:
                seg = conduit.segment(1)
                off = seg.allocate(4096)
                h = conduit.put_nb(0, 1, off, bytes(4096))
                _wait(s, h, 0)
                out["t"] = h.time_done

        sched.run(body)
        return out["t"]

    assert one(ppn=2) < one(ppn=1)  # same node beats cross node


def test_amo_fetch_add_no_target_cpu():
    """Remote atomics apply even while the target computes obliviously."""
    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)

    def body(r):
        s = current_scheduler()
        seg = conduit.segment(1)
        if r == 1:
            off = seg.allocate(8)
            seg.view(off, np.int64, 1)[0] = 100
            s.rank_env(0)["off"] = off
            s.sleep(1e-3)  # "computing": never polls, atomics land anyway
            return int(seg.view(off, np.int64, 1)[0])
        else:
            s.sleep(1e-6)
            off = s.rank_env(0)["off"]
            h1 = conduit.amo(0, 1, off, "fetch_add", np.int64, (5,))
            _wait(s, h1, 0)
            h2 = conduit.amo(0, 1, off, "fetch_add", np.int64, (7,))
            _wait(s, h2, 0)
            return (h1.data, h2.data)

    res = Scheduler.run(sched, body) if False else sched.run(body)
    assert res[0] == (100, 105)
    assert res[1] == 112


def test_amo_cas():
    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)

    def body(r):
        s = current_scheduler()
        seg = conduit.segment(1)
        if r == 1:
            off = seg.allocate(8)
            seg.view(off, np.int64, 1)[0] = 10
            s.rank_env(0)["off"] = off
            s.sleep(1e-3)
            return int(seg.view(off, np.int64, 1)[0])
        s.sleep(1e-6)
        off = s.rank_env(0)["off"]
        h = conduit.amo(0, 1, off, "cas", np.int64, (10, 77))
        _wait(s, h, 0)
        h2 = conduit.amo(0, 1, off, "cas", np.int64, (10, 99))  # stale expected
        _wait(s, h2, 0)
        return (h.data, h2.data)

    res = sched.run(body)
    assert res[0] == (10, 77)
    assert res[1] == 77  # second CAS failed


def test_conduit_stats():
    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)

    def body(r):
        s = current_scheduler()
        if r == 0:
            seg = conduit.segment(1)
            off = seg.allocate(64)
            h = conduit.put_nb(0, 1, off, bytes(64))
            _wait(s, h, 0)
            conduit.am_send(0, 1, "x", None, nbytes=8)

    sched.run(body)
    st = conduit.stats()
    assert st["puts"] == 1 and st["ams"] == 1


def test_bare_transfer_is_the_callers_to_keep():
    """``put_nb``/``get_nb`` hand their caller (mpisim, VIS, a test) a fresh
    record every time: it completes once, a second completion raises, and
    it is never reused for a later transfer while the caller holds it."""
    from repro.gasnet.handle import Handle, Transfer

    sched = Scheduler(2)
    conduit = _mkconduit(sched, 2)

    def body(r):
        s = current_scheduler()
        if r != 0:
            return None
        seg = conduit.segment(1)
        off = seg.allocate(8)
        seg.write(off, b"OLDBYTES")
        first_put = _wait(s, conduit.put_nb(0, 1, off, b"NEWBYTES"), 0)
        first_get = _wait(s, conduit.get_nb(0, 1, off, 8), 0)
        assert type(first_put) is Transfer and isinstance(first_put, Handle)
        assert first_put.op == ("put", 0, 1, 8) and first_put.payload is None
        stamps = (first_put.time_done, first_get.time_done)
        for h in (first_put, first_get):
            with pytest.raises(RuntimeError, match="completed twice"):
                h.complete(s.now())
        later = []
        for i in range(8):
            later.append(_wait(s, conduit.put_nb(0, 1, off, bytes([i]) * 8), 0))
            later.append(_wait(s, conduit.get_nb(0, 1, off, 8), 0))
        assert len({id(h) for h in later + [first_put, first_get]}) == 18
        assert (first_put.time_done, first_get.time_done) == stamps
        return (first_get.data, later[-1].data)

    assert sched.run(body)[0] == (b"NEWBYTES", bytes([7]) * 8)


@pytest.mark.parametrize("program", ["chaos_mixed[seed=3,drop=0.2,dup=0.1]", "span_mix"])
def test_every_put_and_get_takes_the_one_tail(program, monkeypatch):
    """Fault-free or over the retransmit ladder: a put is ``Conduit.put``,
    a get is ``Conduit.get`` + ``_get_reply``, and the result is the
    committed golden entry."""
    from tests import golden

    seen = set()
    for name in ("put", "get", "_get_reply"):

        def counting(self, *args, _orig=getattr(Conduit, name), _name=name):
            seen.add((_name, self._faults is not None))
            return _orig(self, *args)

        monkeypatch.setattr(Conduit, name, counting)
    golden.reproduces(program)
    faulty = program.startswith("chaos")
    assert seen == {(name, faulty) for name in ("put", "get", "_get_reply")}


def test_machine_too_small_rejected():
    sched = Scheduler(4)
    with pytest.raises(ValueError):
        Conduit(sched, Machine(n_nodes=1, procs_per_node=2), AriesNetwork())
