"""Tests for the distributed hash table implementations and the graph."""

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.apps.dht import DhtRmaLz, DhtRpcOnly, DistGraph, SerialMap
from repro.upcxx.aggregator import default_route as hash_target


class TestHashTarget:
    def test_deterministic(self):
        assert hash_target(12345, 16) == hash_target(12345, 16)

    def test_in_range(self):
        for key in range(1000):
            assert 0 <= hash_target(key, 7) < 7

    def test_spreads_keys(self):
        n = 8
        counts = [0] * n
        for key in range(4000):
            counts[hash_target(key, n)] += 1
        assert min(counts) > 4000 / n * 0.7  # roughly uniform


def _run_dht(cls, n_ranks=4, inserts=8, vsize=64):
    """Insert distinct keys from every rank, then read them all back."""

    def body():
        me = upcxx.rank_me()
        dht = cls()
        upcxx.barrier()
        rng = upcxx.runtime_here().rng
        keys = [rng.key64() for _ in range(inserts)]
        vals = {k: bytes([(k + i) % 256] * vsize) for i, k in enumerate(keys)}
        for k in keys:
            dht.insert(k, vals[k]).wait()
        upcxx.barrier()
        ok = all(dht.find(k).wait() == vals[k] for k in keys)
        upcxx.barrier()
        total = upcxx.reduce_all(dht.local_size(), "+").wait()
        upcxx.barrier()
        return ok, total

    res = upcxx.run_spmd(body, n_ranks)
    assert all(ok for ok, _ in res)
    assert all(total == n_ranks * inserts for _, total in res)


class TestDhtRpcOnly:
    def test_insert_find_roundtrip(self):
        _run_dht(DhtRpcOnly)

    def test_find_missing_returns_none(self):
        def body():
            dht = DhtRpcOnly()
            upcxx.barrier()
            assert dht.find(424242).wait() is None
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_overwrite(self):
        def body():
            dht = DhtRpcOnly()
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                dht.insert(7, b"one").wait()
                dht.insert(7, b"two").wait()
                assert dht.find(7).wait() == b"two"
            upcxx.barrier()

        upcxx.run_spmd(body, 2)


class TestDhtRmaLz:
    def test_insert_find_roundtrip(self):
        _run_dht(DhtRmaLz)

    def test_value_lands_in_shared_segment(self):
        def body():
            dht = DhtRmaLz()
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                key = 99
                dht.insert(key, b"SEGMENT!").wait()
                owner = dht.target_of(key)
                got = dht.find(key).wait()
                assert got == b"SEGMENT!"
                # landing zone recorded at the owner
                owner_size = upcxx.rpc(owner, lambda d: len(d.value), dht._dobj).wait()
                assert owner_size == 1
            upcxx.barrier()

        upcxx.run_spmd(body, 4)

    def test_pipelined_inserts_with_when_all(self):
        def body():
            dht = DhtRmaLz()
            upcxx.barrier()
            futs = [dht.insert(k, bytes([k] * 32)) for k in range(20)]
            upcxx.when_all(*futs).wait()
            upcxx.barrier()
            assert all(dht.find(k).wait() == bytes([k] * 32) for k in range(20))
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_rma_variant_faster_for_large_values(self):
        """Zero-copy RMA beats serialize-both-ends RPC for big values."""

        def timed(cls, vsize):
            times = {}

            def body():
                dht = cls()
                upcxx.barrier()
                if upcxx.rank_me() == 0:
                    val = bytes(vsize)
                    # pick a key owned by the other rank to force remote path
                    key = next(k for k in range(1000) if dht.target_of(k) == 1)
                    dht.insert(key, val).wait()  # warm-up
                    t0 = upcxx.sim_now()
                    for i in range(10):
                        dht.insert(key + 1000 * (i + 1), val).wait()
                    times["t"] = upcxx.sim_now() - t0
                upcxx.barrier()

            upcxx.run_spmd(body, 2, ppn=1)
            return times["t"]

        big = 64 * 1024
        assert timed(DhtRmaLz, big) < timed(DhtRpcOnly, big)


class TestSerialMap:
    def test_roundtrip_and_charges(self):
        def body():
            m = SerialMap()
            t0 = upcxx.sim_now()
            for k in range(50):
                m.insert(k, bytes([k]) * 100)
            dt = upcxx.sim_now() - t0
            assert dt > 0  # CPU charged like the distributed local path
            assert m.find(10) == bytes([10]) * 100
            assert m.find(999) is None
            return m.local_size()

        assert upcxx.run_spmd(body, 1) == [50]


class TestDistGraph:
    def test_vertex_insert_and_edges(self):
        def body():
            g = DistGraph()
            upcxx.barrier()
            me = upcxx.rank_me()
            g.insert_vertex(me, name=f"v{me}").wait()
            upcxx.barrier()
            other = (me + 1) % upcxx.rank_n()
            g.add_edge(me, other).wait()
            upcxx.barrier()
            v = g.get_vertex(me).wait()
            upcxx.barrier()
            return (v.properties["name"], sorted(v.nbs))

        res = upcxx.run_spmd(body, 3)
        assert res[0] == ("v0", [1])
        assert res[2] == ("v2", [0])

    def test_add_edge_missing_vertex_returns_false(self):
        def body():
            g = DistGraph()
            upcxx.barrier()
            ok = g.add_edge(12345, 1).wait()
            upcxx.barrier()
            return ok

        assert upcxx.run_spmd(body, 2) == [False, False]

    def test_undirected_edge(self):
        def body():
            g = DistGraph()
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                upcxx.when_all(g.insert_vertex(1), g.insert_vertex(2)).wait()
                g.add_undirected_edge(1, 2).wait()
                v1 = g.get_vertex(1).wait()
                v2 = g.get_vertex(2).wait()
                assert v1.nbs == [2] and v2.nbs == [1]
            upcxx.barrier()

        upcxx.run_spmd(body, 4)
