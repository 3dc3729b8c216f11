"""Tests for repro.upcxx.aggregator — the runtime aggregation subsystem.

Covers the AggStore surface the apps build on: pluggable combines,
counting quiescence, dwell-deadline flushing, credit flow control (and
its backpressure accounting), the hot-key read cache with its sharer-list
invalidation, and the stats/runtime counter plumbing.
"""

import re

import pytest

import repro.upcxx as upcxx
from repro.sim.errors import RankFailure
from repro.upcxx.aggregator import (
    _ABSENT,
    COMBINES,
    AggStore,
    combine_add,
    combine_max,
    combine_min,
    combine_replace,
    default_route,
)


class TestCombines:
    def test_builtins(self):
        assert combine_add(2, 3) == 5
        assert combine_replace(2, 3) == 3
        assert combine_min(2, 3) == 2
        assert combine_max(2, 3) == 3
        assert set(COMBINES) == {"+", "replace", "min", "max"}

    def test_route_is_deterministic_and_in_range(self):
        for k in (0, 1, 7, 123456789, "alpha", (3, 4)):
            t = default_route(k, 8)
            assert 0 <= t < 8
            assert default_route(k, 8) == t


class TestAggStoreCore:
    def test_invalid_parameters(self):
        def body():
            with pytest.raises(ValueError):
                AggStore("+", batch_size=0)
            with pytest.raises(ValueError):
                AggStore("+", batch_size=4, credits=0)
            with pytest.raises(KeyError):
                AggStore("no-such-combine")

        upcxx.run_spmd(body, 1)

    def test_add_combine_mass_conserved(self):
        def body():
            store = AggStore("+", batch_size=16)
            upcxx.barrier()
            rng = upcxx.runtime_here().rng.spawn("agg-mass")
            for _ in range(100):
                store.update(rng.key64() % 64, 1)
            store.quiesce()
            local = sum(store.local_items().values())
            total = upcxx.reduce_all(local, "+").wait()
            upcxx.barrier()
            return total

        res = upcxx.run_spmd(body, 4)
        assert all(t == 400 for t in res)

    def test_replace_min_max_combines(self):
        def body():
            me = upcxx.rank_me()
            lo = AggStore("min", batch_size=4)
            hi = AggStore("max", batch_size=4)
            last = AggStore("replace", batch_size=4)
            upcxx.barrier()
            lo.update(9, me + 1)
            hi.update(9, me + 1)
            # deterministic final writer: ranks write distinct keys
            last.update(me, me * 10)
            for s in (lo, hi, last):
                s.quiesce()
            out = (
                lo.read(9, default=None).wait(),
                hi.read(9, default=None).wait(),
                last.read(me, default=None).wait(),
            )
            upcxx.barrier()
            return out

        res = upcxx.run_spmd(body, 3)
        for r, (mn, mx, own) in enumerate(res):
            assert mn == 1
            assert mx == 3
            assert own == r * 10

    def test_callable_combine(self):
        def body():
            store = AggStore(lambda old, new: old * new, batch_size=2)
            upcxx.barrier()
            for v in (2, 3, 4):
                store.update(5, v)
            store.quiesce()
            v = store.read(5, default=None).wait()
            upcxx.barrier()
            return v

        res = upcxx.run_spmd(body, 2)
        assert res[0] == (2 * 3 * 4) ** 2  # both ranks multiply in

    def test_quiesce_flushes_partial_buffers(self):
        def body():
            store = AggStore("+", batch_size=10_000)  # never auto-flushes
            upcxx.barrier()
            store.update(1, 7)
            store.quiesce()
            v = store.read(1, default=0).wait()
            upcxx.barrier()
            return v

        res = upcxx.run_spmd(body, 2)
        assert res[0] == 14

    def test_stats_shape(self):
        def body():
            store = AggStore("+", batch_size=4, credits=4, cache_capacity=8)
            upcxx.barrier()
            store.update(3, 1)
            store.quiesce()
            store.read(3, default=0).wait()
            upcxx.barrier()
            return store.stats()

        res = upcxx.run_spmd(body, 2)
        expected_keys = {
            "batches_sent", "updates_sent", "updates_combined",
            "invals_sent", "sharers_registered", "acks_received",
            "applied_updates", "applied_batches", "applied_invals", "reads_served",
            "credit_stalls", "credit_stall_s",
            "cache_hits", "cache_misses", "reads_coalesced", "read_batches",
            "cache_invalidations",
            "acks_forgiven", "acks_ignored", "updates_dropped", "cache_purges",
        }
        for s in res:
            assert set(s) == expected_keys
        assert sum(s["applied_updates"] for s in res) == 2



class TestAdditiveCounting:
    """The HipMer k-mer counting shape: an additive store, batched per
    destination, read back after counting quiescence."""

    def test_counts_exact_after_quiesce(self):
        def body():
            store = AggStore("+", batch_size=8)
            upcxx.barrier()
            # every rank increments the same 20 keys 3 times
            for _ in range(3):
                for k in range(20):
                    store.update(k, 1)
            store.quiesce()
            vals = [store.read(k, default=0).wait() for k in range(20)]
            upcxx.barrier()
            return vals

        res = upcxx.run_spmd(body, 4)
        for vals in res:
            assert vals == [3 * 4] * 20

    def test_deltas_accumulate(self):
        def body():
            store = AggStore("+", batch_size=4)
            upcxx.barrier()
            store.update(7, upcxx.rank_me() + 1)
            store.quiesce()
            v = store.read(7, default=0).wait()
            upcxx.barrier()
            return v

        res = upcxx.run_spmd(body, 3)
        assert res[0] == 1 + 2 + 3

    def test_batching_reduces_messages(self):
        def run(batch):
            stats = {}

            def body():
                store = AggStore("+", batch_size=batch)
                upcxx.barrier()
                rng = upcxx.runtime_here().rng.spawn("agg")
                for _ in range(128):
                    store.update(rng.key64() % 512, 1)
                store.quiesce()
                upcxx.barrier()
                if upcxx.rank_me() == 0:
                    stats["sent"] = store.batches_sent

            upcxx.run_spmd(body, 4)
            return stats["sent"]

        assert run(64) < run(1) / 10

    def test_batching_improves_simulated_time(self):
        def run(batch):
            out = {}

            def body():
                store = AggStore("+", batch_size=batch)
                upcxx.barrier()
                rng = upcxx.runtime_here().rng.spawn("agg-t")
                t0 = upcxx.sim_now()
                for _ in range(256):
                    store.update(rng.key64() % 1024, 1)
                store.quiesce()
                upcxx.barrier()
                out["t"] = upcxx.sim_now() - t0

            upcxx.run_spmd(body, 4, ppn=1)
            return out["t"]

        # aggregation amortizes per-message software costs
        assert run(64) < run(1) * 0.5


def _sim_sleep(dt):
    """Park the calling rank for ``dt`` simulated seconds."""
    rt = upcxx.runtime_here()
    t_dead = rt.now() + dt
    rt.sched.post_at(t_dead, lambda: rt.sched.wake(rt.rank, t_dead))
    rt.wait_quiet(lambda: rt.now() >= t_dead, "test::sleep")


class TestDwellAndCredits:
    def test_max_dwell_flushes_via_poll(self):
        def body():
            store = AggStore("+", batch_size=10_000, max_dwell=2e-6)
            upcxx.barrier()
            me = upcxx.rank_me()
            if me == 0:
                store.update(11, 1)
                assert store.batches_sent == 0  # buffered, under batch size
                _sim_sleep(10e-6)
                store.poll()  # past the dwell deadline: must flush now
                assert store.batches_sent == 1
            store.quiesce()
            v = store.read(11, default=0).wait()
            upcxx.barrier()
            return v

        res = upcxx.run_spmd(body, 2)
        assert res[0] == 1

    def test_poll_respects_unexpired_dwell(self):
        def body():
            store = AggStore("+", batch_size=10_000, max_dwell=1.0)
            upcxx.barrier()
            store.update(11, 1)
            store.poll()  # deadline 1 simulated second away: no flush
            sent_before_quiesce = store.batches_sent
            store.quiesce()
            upcxx.barrier()
            return sent_before_quiesce

        res = upcxx.run_spmd(body, 2)
        assert all(s == 0 for s in res)

    def test_credit_exhaustion_stalls_and_recovers(self):
        stats = {}

        def body():
            store = AggStore("+", batch_size=1, credits=1)
            upcxx.barrier()
            # batch_size=1 + credits=1: every second consecutive update to
            # the same destination must wait for the previous batch's ack
            dest_key = 0 if store.dest_of(0) != upcxx.rank_me() else 1
            for _ in range(16):
                store.update(dest_key, 1)
            store.quiesce()
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                stats.update(store.stats())
                rt = upcxx.runtime_here()
                stats["rt"] = (rt.agg_credit_stall_s, rt.agg_batches)

        upcxx.run_spmd(body, 2, ppn=1)
        assert stats["credit_stalls"] > 0
        assert stats["credit_stall_s"] > 0.0
        assert stats["acks_received"] == stats["batches_sent"]
        # the rank's counters, which telemetry snapshots, hold the same
        # totals (the store is the rank's only one)
        assert stats["rt"] == (stats["credit_stall_s"], stats["batches_sent"])

    def test_no_credits_means_no_stalls(self):
        stats = {}

        def body():
            store = AggStore("+", batch_size=1)
            upcxx.barrier()
            for _ in range(16):
                store.update(upcxx.rank_me(), 1)
            store.quiesce()
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                stats.update(store.stats())

        upcxx.run_spmd(body, 2, ppn=1)
        assert stats["credit_stalls"] == 0
        assert stats["acks_received"] == 0  # unacked fire-and-forget mode

    def test_a_stall_whose_buffer_a_read_reply_shipped_sends_no_empty_batch(
        self, monkeypatch
    ):
        # rank 0 stalls on its one credit; in the same progress() the ack
        # returns it and the reply of an in-flight read ships the next read
        # batch, its partial write batch (the stalled one) ahead of it.  The
        # stalled flush then finds its buffer empty and must send nothing.
        from repro.upcxx import aggregator

        sizes = []
        apply = aggregator._agg_apply

        def spy(dobj, src, seq, keys, vals, invals):
            sizes.append(len(aggregator._as_list(keys)))
            return apply(dobj, src, seq, keys, vals, invals)

        monkeypatch.setattr(aggregator, "_agg_apply", spy)

        def body():
            store = AggStore("+", batch_size=2, credits=1, cache_capacity=8)
            keys = [k for k in range(256) if store.dest_of(k) == 1][:6]
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                store.update(keys[0], 1)
                store.update(keys[1], 1)  # full: ships with the only credit
                store.read(keys[4])  # a read in flight to rank 1 ...
                store.read(keys[5])  # ... and one buffered behind it
                store.update(keys[2], 1)
                upcxx.compute(1e-3)  # the ack and the read reply both land
                store.update(keys[3], 1)  # full, no credit: stalls
            store.quiesce()
            upcxx.barrier()
            return store.stats()

        s0, s1 = upcxx.run_spmd(body, 2, ppn=1)
        assert s0["credit_stalls"] == 1
        assert sizes == [2, 2]
        assert s0["batches_sent"] == s1["applied_batches"] == 2
        assert s1["applied_updates"] == 4


class _Spy(list):
    """A per-destination list that records which indices were read."""

    def __init__(self, items, seen):
        super().__init__(items)
        self.seen = seen

    def __getitem__(self, i):
        self.seen.append(i)
        return super().__getitem__(i)


class TestPollCostsNothingUntilDue:
    """``poll()`` keeps the oldest armed dwell stamp: with nothing due it
    reads no destination, and a due walk still covers every one."""

    def test_nothing_due_visits_no_destination(self):
        def body():
            rt = upcxx.runtime_here()
            store = AggStore("+", batch_size=64, max_dwell=5e-6)
            seen = []
            store._t_first = _Spy(store._t_first, seen)
            store._t_first_inval = _Spy(store._t_first_inval, seen)
            upcxx.barrier()
            visits = None
            if upcxx.rank_me() == 0:
                k = next(k for k in range(64) if store.dest_of(k) == 3)
                store.poll()  # nothing armed
                store.update(k, 1)
                del seen[:]
                store.poll()  # armed, not due
                idle = list(seen)
                rt.sched.sleep(10e-6)
                store.poll()  # due: one walk over all four destinations
                visits = (idle, sorted(set(seen)), store.batches_sent)
            store.quiesce()
            upcxx.barrier()
            return visits

        visits = upcxx.run_spmd(body, 4)[0]
        assert visits == ([], [0, 1, 2, 3], 1)

    def test_a_deadline_on_the_highest_team_rank_flushes(self):
        def body():
            n = upcxx.rank_n()
            store = AggStore("+", batch_size=64, max_dwell=5e-6)
            upcxx.barrier()
            sent = None
            if upcxx.rank_me() == 0:
                k = next(k for k in range(256) if store.dest_of(k) == n - 1)
                store.update(k, 7)
                store.poll()
                before = store.batches_sent
                upcxx.runtime_here().sched.sleep(10e-6)
                store.poll()
                sent = (before, store.batches_sent, store._t_first[n - 1])
            store.quiesce()
            upcxx.barrier()
            return sent, store.local_items()

        res = upcxx.run_spmd(body, 5)
        assert res[0][0] == (0, 1, None)
        assert list(res[-1][1].values()) == [7]

    def test_an_invalidation_armed_in_a_credit_stall_flushes_at_the_next_due_poll(self):
        """Rank 0's due batch to rank 2 stalls on its only credit; in that
        stall rank 1's write of a key rank 1 caches lands at rank 0 and
        arms an invalidation owed to rank 1, an index the walk had passed."""

        def body():
            me = upcxx.rank_me()
            rt = upcxx.runtime_here()
            store = AggStore("replace", batch_size=64, credits=1, max_dwell=5e-6,
                             cache_capacity=8)
            hot = next(k for k in range(64) if store.dest_of(k) == 0)
            k2 = next(k for k in range(64) if store.dest_of(k) == 2)
            upcxx.barrier()
            if me == 1:
                store.read(hot, default=0).wait()  # rank 1 joins hot's sharers
            upcxx.barrier()
            log = None
            if me == 0:
                store.update(k2, 1)
                store.flush_ready()  # takes rank 2's only credit
                store.update(k2, 2)
                rt.sched.sleep(10e-6)  # no progress: rank 1's batch waits
                store.poll()  # due at rank 2: stalls until rank 2 acks
                armed = (list(store._inval_buf[1]), store._t_first_inval[1] is not None)
                rt.sched.sleep(10e-6)
                store.poll()
                log = (store.credit_stalls, armed, list(store._inval_buf[1]))
            elif me == 1:
                store.update(hot, 5)
                store.flush()
            else:
                rt.sched.sleep(30e-6)  # sits on rank 0's batch unacked
            store.quiesce()
            upcxx.barrier()
            return log, store.stats()["applied_invals"]

        res = upcxx.run_spmd(body, 3, ppn=1)
        log = res[0][0]
        hot = log[1][0][0]
        assert log == (1, ([hot], True), [])
        assert res[1][1] == 1


class TestFlushReady:
    """The work-conserving flush a parking caller makes."""

    def test_ships_partial_data_buffers_and_leaves_invalidations_to_their_dwell(self):
        def body():
            rt = upcxx.runtime_here()
            me = upcxx.rank_me()
            store = AggStore("replace", batch_size=64, max_dwell=1.0, cache_capacity=8)
            mine = {r: [k for k in range(64) if store.dest_of(k) == r] for r in range(3)}
            hot = mine[0][0]
            upcxx.barrier()
            if me == 1:
                store.read(hot, default=0).wait()  # rank 1 joins hot's sharer list
            upcxx.barrier()
            if me == 2:
                store.update(hot, 5)
                store.flush_ready()
                assert store.batches_sent == 1
            seen = None
            if me == 0:
                # the write lands here and leaves rank 1 owed an invalidation
                rt.wait_quiet(lambda: store.applied_updates == 1, "test")
                owed = (list(store._inval_buf[1]), store._t_first_inval[1])
                assert owed[0] == [hot] and owed[1] is not None
                store.update(mine[0][1], 1)
                store.update(mine[2][0], 2)
                store.update(mine[2][1], 3)
                store.flush_ready()
                seen = (
                    store.batches_sent,
                    [len(b) for b in store._buf_keys],
                    store._t_first,
                    (list(store._inval_buf[1]), store._t_first_inval[1]) == owed,
                )
            store.quiesce()
            upcxx.barrier()
            return seen, store.stats()["cache_invalidations"]

        (seen, _), (_, invalidated), _ = upcxx.run_spmd(body, 3)
        assert seen == (2, [0, 0, 0], [None, None, None], True)
        assert invalidated == 1  # quiesce() delivered what the park left alone

    def test_an_exhausted_peer_keeps_its_buffer_and_nobody_stalls(self):
        def body():
            rt = upcxx.runtime_here()
            store = AggStore("+", batch_size=4, credits=1, max_dwell=1.0)
            k = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            log = None
            if upcxx.rank_me() == 0:
                store.update(k, 1)
                store.flush_ready()  # takes the peer's only credit
                store.update(k, 10)
                t0 = rt.now()
                store.flush_ready()  # zero credits: hold, do not wait
                held = (store.batches_sent, list(store._buf_keys[1]), rt.now() - t0)
                rt.wait_quiet(lambda: store.acks_received == 1, "test")
                store.flush_ready()  # the credit is home
                log = (held, store.batches_sent, store.credit_stalls)
            store.quiesce()
            upcxx.barrier()
            return log, store.local_items()

        (log, _), (_, owned) = upcxx.run_spmd(body, 2, ppn=1)
        assert log == ((1, [next(iter(owned))], 0.0), 2, 0)
        assert list(owned.values()) == [11]

    def test_a_dead_peers_buffer_is_dropped_and_counted(self):
        def body():
            store = AggStore("+", batch_size=4, credits=1)
            k = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                store.update(k, 1)
                store.update(k, 2)
                # detection lands between buffering and the park
                store.dead_peers.add(1)
                store.flush_ready()
                assert store._buf_keys[1] == [] and store._sent_updates[1] == 0
                store.dead_peers.discard(1)  # let the test's quiesce include rank 1
            store.quiesce()
            upcxx.barrier()
            return store.stats()

        s0, s1 = upcxx.run_spmd(body, 2)
        assert (s0["updates_dropped"], s0["batches_sent"]) == (2, 0)
        assert s1["applied_updates"] == 0

    @pytest.mark.parametrize("combine_at_source", [False, True])
    @pytest.mark.parametrize("combine", ["+", "replace"])
    def test_counting_quiescence_closes_after_park_flushes(self, combine, combine_at_source):
        def body():
            me = upcxx.rank_me()
            store = AggStore(combine, batch_size=8, credits=2, max_dwell=2e-6,
                             combine_at_source=combine_at_source)
            rng = upcxx.runtime_here().rng.spawn("park-fuzz").py
            upcxx.barrier()
            for i in range(300):
                k = rng.randrange(4) if rng.random() < 0.5 else rng.randrange(64)
                store.update(k, me * 1000 + i)
                if i % 5 == 0:
                    store.flush_ready()
                if i % 11 == 0:
                    _sim_sleep(1e-6)
                    store.poll()
            store.quiesce()
            upcxx.barrier()
            return store.stats(), list(store._sent_updates)

        res = upcxx.run_spmd(body, 4, seed=5)
        for r, (s, _) in enumerate(res):
            # every rank applied exactly the wire entries the world sent it
            assert s["applied_updates"] == sum(sent[r] for _, sent in res)
            assert sum(res[r][1]) == s["updates_sent"] - s["updates_combined"]
            assert s["acks_received"] == s["batches_sent"]
            assert s["updates_sent"] == 300
        assert (sum(s["updates_combined"] for s, _ in res) > 0) == combine_at_source


class TestConservationLaws:
    """``quiesce()`` checks both of its laws on every run."""

    @staticmethod
    def _skewed_run(**kw):
        def body():
            me = upcxx.rank_me()
            store = AggStore("+", batch_size=8, **kw)
            rng = upcxx.runtime_here().rng.spawn("laws").py
            upcxx.barrier()
            for i in range(200):
                store.update(rng.randrange(6), me * 1000 + i)
            store.quiesce()
            upcxx.barrier()
            return store.stats()

        return upcxx.run_spmd(body, 4, seed=5)

    def test_the_ledger_names_a_seal_pass_that_unsends_twice(self, monkeypatch):
        fold = AggStore._fold

        def unsends_twice(self, t, bk, bv):
            before = self.updates_combined
            out = fold(self, t, bk, bv)
            self._sent_updates[t] -= self.updates_combined - before
            return out

        assert self._skewed_run(combine_at_source=True)  # the laws hold
        monkeypatch.setattr(AggStore, "_fold", unsends_twice)
        with pytest.raises(RankFailure) as ei:
            self._skewed_run(combine_at_source=True)
        assert isinstance(ei.value.__cause__, upcxx.UpcxxError)
        assert re.search(r"rank \d+ applied \d+ updates, the world owes it -?\d+",
                         str(ei.value.__cause__))

    def test_the_credit_law_names_an_ack_that_returns_two_credits(self, monkeypatch):
        on_ack = AggStore._on_ack

        def returns_two(self, dest_trank, seq):
            on_ack(self, dest_trank, seq)
            self._credits[dest_trank] += 1

        assert self._skewed_run(credits=2)  # the laws hold
        monkeypatch.setattr(AggStore, "_on_ack", returns_two)
        with pytest.raises(RankFailure) as ei:
            self._skewed_run(credits=2)
        assert isinstance(ei.value.__cause__, upcxx.UpcxxError)
        assert re.search(r"rank \d+ credits not home after the ack drain: "
                         r"\[\(\d+, \d+\).*\] init 2", str(ei.value.__cause__))


class TestHotKeyCache:
    def test_hit_after_fill_and_invalidation_on_update(self):
        out = {}

        def body():
            me = upcxx.rank_me()
            store = AggStore("replace", batch_size=4, cache_capacity=8)
            # pick a key owned by rank 1 so rank 0's reads go remote
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            if me == 1:
                store.update(key, 111)
            store.quiesce()
            seq = []
            if me == 0:
                seq.append(store.read(key).wait())  # miss -> fill
                seq.append(store.read(key).wait())  # hit
            store.quiesce()
            upcxx.barrier()
            if me == 1:
                store.update(key, 222)  # owner update -> invalidate watchers
            store.quiesce()
            if me == 0:
                seq.append(store.read(key).wait())  # must re-fetch: 222
                out["seq"] = seq
                out.update(store.stats())
            upcxx.barrier()

        upcxx.run_spmd(body, 2)
        assert out["seq"] == [111, 111, 222]
        assert out["cache_hits"] == 1
        assert out["cache_misses"] == 2
        assert out["cache_invalidations"] >= 1

    def test_lru_eviction_bounds_cache(self):
        out = {}

        def body():
            me = upcxx.rank_me()
            store = AggStore("replace", batch_size=4, cache_capacity=2)
            upcxx.barrier()
            if me == 1:
                for k in range(8):
                    store.update(k, k)
            store.quiesce()
            if me == 0:
                for k in range(8):
                    store.read(k, default=-1).wait()
                # only 2 entries may survive; re-reading an evicted key misses
                store.read(0, default=-1).wait()
                out.update(store.stats())
            store.quiesce()
            upcxx.barrier()

        upcxx.run_spmd(body, 2)
        assert out["cache_hits"] == 0
        assert out["cache_misses"] == 9

    def test_uncached_store_has_zero_cache_traffic(self):
        out = {}

        def body():
            store = AggStore("replace", batch_size=4)
            upcxx.barrier()
            store.update(upcxx.rank_me(), 1)
            store.quiesce()
            store.read(0, default=0).wait()
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                out.update(store.stats())

        upcxx.run_spmd(body, 2)
        assert out["cache_hits"] == out["cache_misses"] == 0
        assert out["cache_invalidations"] == 0

    @pytest.mark.parametrize("credits", [None, 4])
    def test_writer_rereading_before_its_write_lands_is_invalidated(self, credits):
        # the writer is a sharer like any other: it re-read (and re-cached)
        # the old value while its own write sat in a buffer, so the write
        # owes it an invalidation — whether or not batches carry an ack-to
        out = {}

        def body():
            me = upcxx.rank_me()
            store = AggStore("replace", batch_size=4, credits=credits, cache_capacity=8)
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            if me == 0:
                store.update(key, 111)
            store.quiesce()
            seq = []
            if me == 0:
                seq.append(store.read(key).wait())  # miss -> fill 111
                store.update(key, 222)  # buffered; local copy popped
                seq.append(store.read(key).wait())  # read-through: 111, re-fill
            store.quiesce()
            if me == 0:
                seq.append(store.read(key).wait())
                out["seq"] = seq
                out.update(store.stats())
            else:
                out["owner"] = store.local_items()[key]
            upcxx.barrier()

        upcxx.run_spmd(body, 2)
        assert out["seq"] == [111, 111, 222]
        assert out["owner"] == 222
        assert out["cache_hits"] == 0
        assert out["cache_invalidations"] == 1

    @pytest.mark.parametrize("cache_capacity", [0, 8])
    def test_missing_key_reads_back_none_default(self, cache_capacity):
        # the owner's None reply is an empty future: the cache-fill
        # continuation used to be called with no argument -> TypeError
        def body():
            store = AggStore("replace", batch_size=4, cache_capacity=cache_capacity)
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            got = None
            if upcxx.rank_me() == 0:
                got = (
                    store.read(key).wait(),  # miss at the owner
                    store.read(key).wait(),  # the cached None, when caching
                    store.read_from(1, key).wait(),
                )
            store.quiesce()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 2)[0] == (None, None, None)

    def test_each_reader_of_a_missing_key_gets_its_own_default(self):
        # the owner reports absence and the cache holds an absent marker:
        # the first reader's default used to be cached as if it were the
        # owner's value, so the second read returned 5
        def body():
            store = AggStore("replace", batch_size=4, cache_capacity=8)
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            got = None
            if upcxx.rank_me() == 0:
                got = (
                    store.read(key, default=5).wait(),
                    store.read(key, default=7).wait(),  # a cache hit
                    store.stats()["cache_hits"],
                )
            store.quiesce()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 2)[0] == (5, 7, 1)

    @pytest.mark.parametrize("cache_capacity", [0, 8])
    def test_stored_none_is_not_a_missing_key(self, cache_capacity):
        def body():
            store = AggStore("replace", batch_size=4, cache_capacity=cache_capacity)
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            if upcxx.rank_me() == 1:
                store.update(key, None)
            store.quiesce()
            got = None
            if upcxx.rank_me() == 0:
                got = (store.read(key, default=5).wait(), store.read(key, default=7).wait())
            store.quiesce()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 2)[0] == (None, None)


class TestSharedFills:
    """Concurrent misses on one key share one read-through (an MSHR)."""

    def test_two_reads_with_nothing_shipped_between_cost_one_rpc(self):
        def body():
            me = upcxx.rank_me()
            store = AggStore("replace", batch_size=4, cache_capacity=8)
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            if me == 1:
                store.update(key, 111)
            store.quiesce()
            got = None
            if me == 0:
                rpcs = upcxx.runtime_here().n_rpcs_sent
                a = store.read(key, default=5)
                b = store.read(key, default=7)
                rpcs = upcxx.runtime_here().n_rpcs_sent - rpcs
                s = store.stats()
                got = (a.wait(), b.wait(), rpcs, s["cache_misses"], s["reads_coalesced"])
            store.quiesce()
            upcxx.barrier()
            return got, store.stats()["reads_served"]

        (got, _), (_, served_by_owner) = upcxx.run_spmd(body, 2)
        assert got == (111, 111, 1, 1, 1)
        assert served_by_owner == 1

    def test_coalesced_readers_of_a_missing_key_keep_their_defaults(self):
        def body():
            store = AggStore("replace", batch_size=4, cache_capacity=8)
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            got = None
            if upcxx.rank_me() == 0:
                a = store.read(key, default=5)
                b = store.read(key, default=7)
                got = (a.wait(), b.wait(), store.stats()["reads_coalesced"])
            store.quiesce()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 2)[0] == (5, 7, 1)

    @pytest.mark.parametrize("ship", ["flush", "flush_ready"])
    @pytest.mark.parametrize("combine_at_source", [False, True])
    def test_a_read_after_my_shipped_write_does_not_share_an_older_fill(
            self, combine_at_source, ship):
        # read, update, flush (or park), read: the second read is
        # FIFO-ordered after the shipped write at the owner, so it must be
        # its own RPC
        def body():
            me = upcxx.rank_me()
            store = AggStore("replace", batch_size=4, cache_capacity=8,
                             combine_at_source=combine_at_source)
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            if me == 1:
                store.update(key, 111)
            store.quiesce()
            got = None
            if me == 0:
                a = store.read(key)
                store.update(key, 222)
                buffered = store.read(key)  # write not shipped yet: shares a's fill
                getattr(store, ship)()
                b = store.read(key)
                s = store.stats()
                got = (a.wait(), buffered.wait(), b.wait(),
                       s["cache_misses"], s["reads_coalesced"])
            store.quiesce()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 2)[0] == (111, 111, 222, 2, 1)

    def test_shared_fill_probe_is_a_span_in_the_cache_bucket(self):
        from repro.util.spans import PHASES, SpanBuffer

        def body():
            store = AggStore("replace", batch_size=4, cache_capacity=8)
            key = next(k for k in range(64) if store.dest_of(k) == 1)
            upcxx.barrier()
            if upcxx.rank_me() == 0:
                futs = [store.read(key, default=0) for _ in range(3)]
                for f in futs:
                    f.wait()
            store.quiesce()
            upcxx.barrier()

        spans = SpanBuffer()
        upcxx.run_spmd(body, 2, spans=spans)
        assert PHASES["fill_share"] == "cache"
        shares = [r for r in spans if r[4] == "fill_share"]
        assert len(shares) == 2 and all(r[1] > r[0] and r[2] == 0 for r in shares)


class TestReadBatching:
    """Misses to a holder with a read message in flight ride one batch."""

    @staticmethod
    def _keys_of(store, holder, n):
        return [k for k in range(256) if store.dest_of(k) == holder][:n]

    def test_a_lone_miss_is_the_one_key_message(self):
        # the same read as a raw one-key ``_agg_read``: one AM each way,
        # byte for byte
        from repro.upcxx.aggregator import _agg_read

        rts = {}

        def body():
            me = upcxx.rank_me()
            rts[me] = upcxx.runtime_here()
            store = AggStore("replace", batch_size=4, cache_capacity=8)
            key = self._keys_of(store, 1, 1)[0]
            upcxx.barrier()
            if me == 1:
                store.update(key, 111)
            store.quiesce()
            got = None
            if me == 0:
                eps = (rts[0]._ep, rts[1]._ep)
                costs = []
                for read in (lambda: upcxx.rpc(1, _agg_read, store._dobj, key, 0),
                             lambda: store.read(key)):
                    before = [(ep.n_ams, ep.bytes_out) for ep in eps]
                    value = read().wait()
                    costs.append([(ep.n_ams - a, ep.bytes_out - b)
                                  for ep, (a, b) in zip(eps, before)])
                got = (value, costs, store.stats()["read_batches"])
            store.quiesce()
            upcxx.barrier()
            return got

        value, (raw, lone), batches = upcxx.run_spmd(body, 2)[0]
        assert value == 111 and batches == 1
        assert lone == raw and [n for n, _ in lone] == [1, 1]

    def test_misses_behind_an_in_flight_read_cost_one_more_message(self, monkeypatch):
        # five misses, the first ships alone and the other four wait for
        # its reply: two requests, two replies; the owner's batch body is
        # charged one ``map_lookup`` per key and nothing else
        from repro.upcxx import aggregator

        served = []
        batch_body = aggregator._agg_read_batch

        def spy(dobj, keys, reader):
            rt = upcxx.runtime_here()
            t0 = rt.now()
            out = batch_body(dobj, keys, reader)
            n = len(aggregator._as_list(keys))
            served.append((n, rt.now() - t0, rt.cpu.t(rt.cpu.map_lookup * n)))
            return out

        monkeypatch.setattr(aggregator, "_agg_read_batch", spy)
        rts = {}

        def body():
            me = upcxx.rank_me()
            rt = rts[me] = upcxx.runtime_here()
            store = AggStore("replace", batch_size=64, cache_capacity=8)
            keys = self._keys_of(store, 1, 5)
            upcxx.barrier()
            if me == 1:
                for k in keys[:4]:  # the last key stays absent
                    store.update(k, 100 + k)
            store.quiesce()
            got = None
            if me == 0:
                owner = rts[1]
                before = (rt.n_rpcs_sent, owner.n_rpcs_executed, owner._ep.n_ams)
                futs = [store.read(k, default=-1) for k in keys]
                buffered = len(store._read_keys[1])
                values = [f.wait() for f in futs]
                after = (rt.n_rpcs_sent, owner.n_rpcs_executed, owner._ep.n_ams)
                got = (keys, values, buffered, [b - a for a, b in zip(before, after)],
                       store.stats())
            store.quiesce()
            upcxx.barrier()
            return got, store.stats()["reads_served"]

        (got, _), (_, served_by_owner) = upcxx.run_spmd(body, 2)
        keys, values, buffered, (requests, dispatched, replies), s = got
        assert values == [100 + k for k in keys[:4]] + [-1]
        assert buffered == 4
        assert requests == dispatched == replies == 2
        assert (s["cache_misses"], s["read_batches"]) == (5, 2)
        assert served_by_owner == 5
        [(n, charged, lookups)] = served
        assert n == 4 and charged == pytest.approx(lookups, rel=1e-12)

    def test_a_full_read_buffer_ships_without_waiting(self):
        def body():
            store = AggStore("replace", batch_size=2, cache_capacity=8)
            keys = self._keys_of(store, 1, 3)
            upcxx.barrier()
            got = None
            if upcxx.rank_me() == 0:
                futs = [store.read(k, default=0) for k in keys]
                got = (store.stats()["read_batches"], len(store._read_keys[1]),
                       [f.wait() for f in futs])
            store.quiesce()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 2)[0] == (2, 0, [0, 0, 0])

    @pytest.mark.parametrize("ship", ["flush", "flush_ready"])
    def test_a_park_or_flush_ships_the_read_buffer(self, ship):
        def body():
            store = AggStore("replace", batch_size=64, cache_capacity=8)
            keys = self._keys_of(store, 1, 3)
            upcxx.barrier()
            got = None
            if upcxx.rank_me() == 0:
                futs = [store.read(k, default=0) for k in keys]
                getattr(store, ship)()
                got = (store.stats()["read_batches"], [f.wait() for f in futs])
            store.quiesce()
            upcxx.barrier()
            return got

        assert upcxx.run_spmd(body, 2)[0] == (2, [0, 0, 0])

    def test_a_batched_fill_racing_a_write_of_its_key_ends_coherent(self):
        # rank 0 batches a read of ``key`` behind an in-flight read while
        # rank 2's write of ``key`` reaches the owner; over the delays the
        # write lands both before and after the batch.  Whichever value
        # the fill carries, after quiescence rank 0 caches the owner's
        # value and is in its sharer list, or caches nothing
        def run(delay):
            def body():
                me = upcxx.rank_me()
                rt = upcxx.runtime_here()
                store = AggStore("replace", batch_size=4, cache_capacity=8)
                first, key = self._keys_of(store, 1, 2)
                upcxx.barrier()
                if me == 1:
                    store.update(key, 111)
                store.quiesce()
                got = None
                if me == 0:
                    store.read(first)
                    fill = store.read(key)
                    assert len(store._read_keys[1]) == 1
                    got = fill.wait()
                elif me == 2:
                    rt.compute(delay)
                    store.update(key, 222)
                    store.flush()
                store.quiesce()
                snap = (dict(store._cache), store.local_items(),
                        {k: list(w) for k, w in store.watchers.items()})
                upcxx.barrier()
                return got, snap

            res = upcxx.run_spmd(body, 3, seed=5)
            got, (cache, _, _) = res[0]
            _, (_, data, watchers) = res[1]
            return got, cache, data, watchers

        seen = set()
        for delay in (0.0, 1e-6, 2e-6, 3e-6, 4e-6, 6e-6, 8e-6):
            got, cache, data, watchers = run(delay)
            seen.add(got)
            for k, v in cache.items():
                assert data.get(k, _ABSENT) == v, (delay, k)
                assert 0 in watchers.get(k, ()), (delay, k)
        assert seen == {111, 222}


class TestSourceCombining:
    """Source combining must be invisible in the owners' shards."""

    def test_off_by_default_and_free_for_a_one_entry_batch(self):
        def body():
            plain = AggStore("+", batch_size=1)
            folding = AggStore("+", batch_size=1, combine_at_source=True)
            upcxx.barrier()
            times = []
            for store in (plain, folding):
                t0 = upcxx.sim_now()
                for _ in range(8):
                    store.update(3, 1)
                times.append(upcxx.sim_now() - t0)
                store.quiesce()
            upcxx.barrier()
            return plain.combine_at_source, times, folding.stats()["updates_combined"]

        off, times, combined = upcxx.run_spmd(body, 2)[0]
        assert off is False
        assert times[0] == pytest.approx(times[1], rel=1e-9)
        assert combined == 0

    @pytest.mark.parametrize("combine", ["+", "replace", "min", "max"])
    def test_run_folds_and_seal_probes(self, combine):
        # k0 k0 k0 | k1 | k0 k0 | k2: four entries, seven updates; the
        # runs fold as they arrive (free), the second k0 entry at the seal
        stream = [(0, 5), (0, 3), (0, 8), (1, 2), (0, 9), (0, 1), (2, 4)]

        def body():
            rt = upcxx.runtime_here()
            store = AggStore(combine, batch_size=4, combine_at_source=True)
            keys = [k for k in range(64) if store.dest_of(k) == 1][:3]
            upcxx.barrier()
            seen = None
            if upcxx.rank_me() == 0:
                hook = []
                store._on_batch_flushed = lambda t, seq, n: hook.append((n, rt.now()))
                t0 = rt.now()
                buffered = []
                for i, v in stream[:-1]:
                    store.update(keys[i], v)
                    buffered.append(len(store._buf_keys[1]))
                unsealed = (rt.now() - t0, store.batches_sent)
                t0 = rt.now()
                i, v = stream[-1]
                store.update(keys[i], v)  # the 4th entry seals the batch
                (n, t_sealed), = hook
                seen = (buffered, unsealed, n, t_sealed - t0,
                        rt.cpu.t(rt.cpu.map_lookup * 4))
            store.quiesce()
            upcxx.barrier()
            return seen, store.stats(), keys, store.local_items()

        (seen, s0, keys, _), (_, s1, _, owned) = upcxx.run_spmd(body, 2)
        buffered, unsealed, n_hook, t_seal, t_probes = seen
        assert buffered == [1, 1, 1, 2, 3, 3]  # a run is one buffered entry
        assert unsealed == (0.0, 0)  # buffering and run folds are uncharged
        assert n_hook == 7  # the hook still sees application updates
        assert t_seal == pytest.approx(t_probes)  # one probe per entry
        assert (s0["updates_sent"], s0["updates_combined"]) == (7, 4)
        assert s1["applied_updates"] == s0["updates_sent"] - s0["updates_combined"] == 3
        expected = {}
        for i, v in stream:
            old = expected.get(keys[i])
            expected[keys[i]] = v if old is None else COMBINES[combine](old, v)
        assert owned == expected

    @pytest.mark.parametrize("max_dwell", [None, 2e-6])
    @pytest.mark.parametrize("credits", [None, 2])
    @pytest.mark.parametrize("combine", ["+", "replace", "min", "max"])
    def test_equivalence_fuzz(self, combine, credits, max_dwell):
        def body(combine_at_source):
            me = upcxx.rank_me()
            store = AggStore(combine, batch_size=8, credits=credits, max_dwell=max_dwell,
                             combine_at_source=combine_at_source)
            rng = upcxx.runtime_here().rng.spawn("combine-fuzz").py
            upcxx.barrier()
            for i in range(400):
                # skewed: half the stream hits four keys
                k = rng.randrange(4) if rng.random() < 0.5 else rng.randrange(64)
                if combine == "replace":
                    # last-writer-wins across senders is decided by arrival
                    # time, which the seal pass moves: one writer per key
                    k = k * 4 + me
                store.update(k, me * 1000 + i)
                if i % 7 == 0:
                    store.poll()
            store.quiesce()
            upcxx.barrier()
            return store.local_items(), store.stats()

        off = upcxx.run_spmd(lambda: body(False), 4, seed=3)
        on = upcxx.run_spmd(lambda: body(True), 4, seed=3)
        assert [items for items, _ in on] == [items for items, _ in off]
        for run, folds in ((off, False), (on, True)):
            sent = sum(s["updates_sent"] for _, s in run)
            combined = sum(s["updates_combined"] for _, s in run)
            applied = sum(s["applied_updates"] for _, s in run)
            assert sent == 4 * 400
            assert applied == sent - combined
            assert (combined > 0) == folds
