"""Tests for teams, collectives, distributed objects, and atomics."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro.upcxx as upcxx
from repro.upcxx.collectives import bcast_children


class TestTeams:
    def test_world_team(self):
        def body():
            t = upcxx.team_world()
            assert t.rank_n() == upcxx.rank_n()
            assert t.rank_me() == upcxx.rank_me()
            assert t[0] == 0
            return t.uid

        assert upcxx.run_spmd(body, 3) == [0, 0, 0]

    def test_local_team_groups_by_node(self):
        def body():
            lt = upcxx.local_team()
            return sorted(lt.members)

        res = upcxx.run_spmd(body, 4, ppn=2)
        assert res[0] == [0, 1] and res[1] == [0, 1]
        assert res[2] == [2, 3] and res[3] == [2, 3]

    def test_create_subteam_explicit(self):
        def body():
            me = upcxx.rank_me()
            world = upcxx.team_world()
            if me in (0, 2):
                sub = world.create_subteam([0, 2])
                assert sub.rank_n() == 2
                assert sub.from_world(2) == 1
            upcxx.barrier()

        upcxx.run_spmd(body, 4)

    def test_split_by_parity(self):
        def body():
            me = upcxx.rank_me()
            world = upcxx.team_world()
            sub = world.split(color=me % 2, key=me)
            upcxx.barrier()
            return (sorted(sub.members), sub.rank_me())

        res = upcxx.run_spmd(body, 4)
        assert res[0][0] == [0, 2] and res[1][0] == [1, 3]
        assert res[2][1] == 1  # rank 2 is second in the even team

    def test_split_key_controls_order(self):
        def body():
            me = upcxx.rank_me()
            world = upcxx.team_world()
            sub = world.split(color=0, key=-me)  # reversed order
            upcxx.barrier()
            return sub.members

        res = upcxx.run_spmd(body, 3)
        assert res[0] == [2, 1, 0]

    def test_subteam_collectives(self):
        def body():
            me = upcxx.rank_me()
            world = upcxx.team_world()
            sub = world.split(color=me % 2, key=me)
            total = upcxx.reduce_all(me, "+", team=sub).wait()
            upcxx.barrier()
            return total

        res = upcxx.run_spmd(body, 4)
        assert res[0] == res[2] == 0 + 2
        assert res[1] == res[3] == 1 + 3


class TestCollectives:
    def test_barrier_synchronizes_time(self):
        def body():
            me = upcxx.rank_me()
            upcxx.compute(me * 10e-6)  # staggered arrival
            upcxx.barrier()
            return upcxx.sim_now()

        res = upcxx.run_spmd(body, 4)
        slowest_arrival = 3 * 10e-6
        assert all(t >= slowest_arrival for t in res)

    def test_barrier_async_overlaps(self):
        def body():
            f = upcxx.barrier_async()
            # we can keep working while the barrier is in flight
            x = sum(range(100))
            f.wait()
            return x

        assert upcxx.run_spmd(body, 4) == [4950] * 4

    def test_broadcast_value(self):
        def body():
            me = upcxx.rank_me()
            v = upcxx.broadcast("payload" if me == 2 else None, root=2).wait()
            upcxx.barrier()
            return v

        assert upcxx.run_spmd(body, 5) == ["payload"] * 5

    def test_broadcast_numpy(self):
        def body():
            me = upcxx.rank_me()
            data = np.arange(16.0) if me == 0 else None
            v = upcxx.broadcast(data, root=0).wait()
            upcxx.barrier()
            return float(v.sum())

        assert upcxx.run_spmd(body, 4) == [120.0] * 4

    @given(st.integers(1, 64))
    def test_the_broadcast_tree_reaches_every_rank_once(self, n):
        # the one binomial tree of UPC++ broadcast/reduce and MPI bcast
        for root in range(n):
            reached = [root]
            frontier = [0]
            while frontier:
                v = frontier.pop()
                for c in bcast_children(v, n):
                    assert c & (c - 1) == v
                    reached.append((c + root) % n)
                    frontier.append(c)
            assert sorted(reached) == list(range(n))

    def test_reduce_one_sum(self):
        def body():
            me = upcxx.rank_me()
            r = upcxx.reduce_one(me + 1, "+", root=0).wait()
            upcxx.barrier()
            return r

        res = upcxx.run_spmd(body, 6)
        assert res[0] == 21
        assert all(r is None for r in res[1:])

    def test_reduce_all_max(self):
        def body():
            me = upcxx.rank_me()
            r = upcxx.reduce_all(me * 7 % 5, "max").wait()
            upcxx.barrier()
            return r

        vals = [r * 7 % 5 for r in range(5)]
        assert upcxx.run_spmd(body, 5) == [max(vals)] * 5

    def test_reduce_all_custom_op(self):
        def body():
            me = upcxx.rank_me()
            r = upcxx.reduce_all([me], lambda a, b: a + b).wait()
            upcxx.barrier()
            return r

        assert upcxx.run_spmd(body, 3) == [[0, 1, 2]] * 3

    def test_many_barriers_in_sequence(self):
        def body():
            for _ in range(10):
                upcxx.barrier()
            return True

        assert all(upcxx.run_spmd(body, 8))

    def test_non_power_of_two_team_sizes(self):
        for n in (3, 5, 7):
            def body():
                upcxx.barrier()
                return upcxx.reduce_all(1, "+").wait()

            assert upcxx.run_spmd(body, n) == [n] * n


class TestDistObject:
    def test_dist_object_value_and_fetch(self):
        def body():
            me = upcxx.rank_me()
            dobj = upcxx.DistObject(me * 100)
            upcxx.barrier()
            got = dobj.fetch(1).wait()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 3) == [100, 100, 100]

    def test_rpc_translates_dist_object_to_local_rep(self):
        def body():
            me = upcxx.rank_me()
            dobj = upcxx.DistObject({"rank": me})
            upcxx.barrier()
            if me == 0:
                got = upcxx.rpc(2, lambda d: d.value["rank"], dobj).wait()
                assert got == 2
            upcxx.barrier()

        upcxx.run_spmd(body, 3)

    def test_rpc_before_construction_is_deferred(self):
        """UPC++ defers RPCs that name a dist_object not yet constructed.

        The target polls the call before it constructs the object, so the
        call is parked; then more round trips than the rpc record free list
        holds run through the target, recycling the record the call
        arrived in.  The parked call still runs once, with its own
        arguments, and fulfils its own future."""
        from repro.upcxx.rpc import RpcOp

        trips = 300
        assert trips > RpcOp.POOL_MAX

        def note(d, tag, n):
            d.value.append((tag, n))
            return tag, n, len(d.value)

        def body():
            rt = upcxx.runtime_here()
            if upcxx.rank_me() == 0:
                dobj = upcxx.DistObject(["early"])
                parked = upcxx.rpc(1, note, dobj, "parked", 7)
                for i in range(trips):
                    assert upcxx.rpc(1, lambda x: x + 1, i).wait() == i + 1
                got = parked.wait()
                upcxx.barrier()
                return got
            while not rt.dist_waiters:
                upcxx.progress()
            parked = [len(calls) for calls in rt.dist_waiters.values()]
            rt.wait_quiet(lambda: rt.n_rpcs_executed >= trips)
            dobj = upcxx.DistObject([])
            # stay attentive so the deferred RPC can complete
            upcxx.barrier()
            return parked, dobj.value

        got, (parked, calls) = upcxx.run_spmd(body, 2)
        assert parked == [1]
        assert calls == [("parked", 7)]
        assert got == ("parked", 7, 1)

    def test_creation_order_gives_matching_ids(self):
        def body():
            a = upcxx.DistObject("a")
            b = upcxx.DistObject("b")
            upcxx.barrier()
            assert a.index == 0 and b.index == 1
            other = (upcxx.rank_me() + 1) % upcxx.rank_n()
            got = upcxx.rpc(other, lambda d: d.value, b).wait()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 2) == ["b", "b"]


class TestAtomics:
    def test_fetch_add_serializes(self):
        def body():
            me = upcxx.rank_me()
            ad = upcxx.AtomicDomain(["fetch_add", "load"], np.int64)
            g = upcxx.new_array(np.int64, 1)
            g.local()[0] = 0
            counter = upcxx.broadcast(g, root=0).wait()
            upcxx.barrier()
            olds = [ad.fetch_add(counter, 1).wait() for _ in range(5)]
            upcxx.barrier()
            final = ad.load(counter).wait() if me == 0 else None
            upcxx.barrier()
            return (olds, final)

        res = upcxx.run_spmd(body, 4)
        assert res[0][1] == 20  # 4 ranks x 5 increments
        all_olds = sorted(x for olds, _ in res for x in olds)
        assert all_olds == list(range(20))  # every ticket unique

    def test_store_load(self):
        def body():
            ad = upcxx.AtomicDomain(["store", "load"], np.int64)
            g = upcxx.new_array(np.int64, 1)
            tgt = upcxx.broadcast(g, root=1).wait()
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                ad.store(tgt, 123).wait()
            upcxx.barrier()
            return ad.load(tgt).wait()

        assert upcxx.run_spmd(body, 2) == [123, 123]

    def test_compare_exchange(self):
        def body():
            ad = upcxx.AtomicDomain(["compare_exchange", "load"], np.int64)
            g = upcxx.new_array(np.int64, 1)
            g.local()[0] = 5
            tgt = upcxx.broadcast(g, root=0).wait()
            upcxx.barrier()
            if upcxx.rank_me() == 1:
                old = ad.compare_exchange(tgt, 5, 9).wait()
                assert old == 5
                old2 = ad.compare_exchange(tgt, 5, 11).wait()
                assert old2 == 9  # failed CAS
            upcxx.barrier()
            return ad.load(tgt).wait()

        assert upcxx.run_spmd(body, 2) == [9, 9]

    def test_undeclared_op_rejected(self):
        def body():
            ad = upcxx.AtomicDomain(["load"], np.int64)
            g = upcxx.new_array(np.int64, 1)
            with pytest.raises(upcxx.UpcxxError):
                ad.add(g, 1)
            upcxx.barrier()

        upcxx.run_spmd(body, 2)

    def test_dtype_mismatch_rejected(self):
        def body():
            ad = upcxx.AtomicDomain(["load"], np.int64)
            g = upcxx.new_array(np.float64, 1)
            with pytest.raises(upcxx.UpcxxError):
                ad.load(g)

        upcxx.run_spmd(body, 1)

    def test_min_max(self):
        def body():
            ad = upcxx.AtomicDomain(["min", "max", "load"], np.int64)
            g = upcxx.new_array(np.int64, 1)
            g.local()[0] = 50
            tgt = upcxx.broadcast(g, root=0).wait()
            upcxx.barrier()
            me = upcxx.rank_me()
            ad.max(tgt, 10 + me).wait()
            ad.min(tgt, 60 + me).wait()
            upcxx.barrier()
            return ad.load(tgt).wait()

        assert upcxx.run_spmd(body, 3) == [50, 50, 50]
