"""Tests for repro.upcxx.aggregator — the runtime aggregation subsystem.

Covers the AggStore surface the apps build on: pluggable combines,
counting quiescence, dwell-deadline flushing, credit flow control (and
its backpressure accounting), the hot-key read cache with its sharer-list
invalidation, and the stats/conduit counter plumbing.
"""

import pytest

import repro.upcxx as upcxx
from repro.upcxx.aggregator import (
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
            "cache_hits", "cache_misses", "reads_coalesced", "cache_invalidations",
            "acks_forgiven", "acks_ignored", "updates_dropped", "cache_purges",
        }
        for s in res:
            assert set(s) == expected_keys
        assert sum(s["applied_updates"] for s in res) == 2


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
                stats["conduit"] = upcxx.runtime_here().conduit.stats()

        upcxx.run_spmd(body, 2, ppn=1)
        assert stats["credit_stalls"] > 0
        assert stats["credit_stall_s"] > 0.0
        assert stats["acks_received"] == stats["batches_sent"]
        # backpressure reaches the conduit's endpoint accounting too
        assert stats["conduit"]["agg_credit_stall_s"] > 0.0
        assert stats["conduit"]["agg_batches"] >= stats["batches_sent"]

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
                rt.wait_quiet(lambda: store.state["applied_updates"] == 1, "test")
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
                store._dead_peers.add(1)
                store.flush_ready()
                assert store._buf_keys[1] == [] and store._sent_updates[1] == 0
                store._dead_peers.discard(1)  # let the test's quiesce include rank 1
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
            return store.stats(), store._sent_updates.tolist()

        res = upcxx.run_spmd(body, 4, seed=5)
        for r, (s, _) in enumerate(res):
            # every rank applied exactly the wire entries the world sent it
            assert s["applied_updates"] == sum(sent[r] for _, sent in res)
            assert sum(res[r][1]) == s["updates_sent"] - s["updates_combined"]
            assert s["acks_received"] == s["batches_sent"]
            assert s["updates_sent"] == 300
        assert (sum(s["updates_combined"] for s, _ in res) > 0) == combine_at_source


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


class TestSourceCombining:
    """Seal-time combining must be invisible in the owners' shards."""

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

    def test_duplicates_fold_and_the_sender_pays_one_probe_per_raw_entry(self):
        def body():
            rt = upcxx.runtime_here()
            store = AggStore("+", batch_size=8, combine_at_source=True)
            key, other = [k for k in range(64) if store.dest_of(k) == 1][:2]
            upcxx.barrier()
            seal = None
            if upcxx.rank_me() == 0:
                hook = []
                store._on_batch_flushed = lambda t, seq, n: hook.append((n, rt.now()))
                for i in range(7):
                    store.update(key, i)
                t0 = rt.now()
                store.update(other, 100)  # 8th entry: seals the batch
                (n, t_sealed), = hook
                seal = (n, t_sealed - t0, rt.cpu.t(rt.cpu.map_lookup * 8))
            store.quiesce()
            upcxx.barrier()
            return seal, store.stats(), store.local_items()

        (seal, s0, _), (_, s1, owned) = upcxx.run_spmd(body, 2)
        n_hook, t_seal, t_probes = seal
        assert n_hook == 8  # the hook still sees application updates
        assert t_seal == pytest.approx(t_probes)
        assert (s0["updates_sent"], s0["updates_combined"]) == (8, 6)
        assert s1["applied_updates"] == 2
        assert sorted(owned.values()) == [21, 100]

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
