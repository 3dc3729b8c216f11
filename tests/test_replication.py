"""Replication layer unit + integration surface.

Covers the pieces the chaos suites exercise only end-to-end:

- :class:`ReplicaMap` placement invariants — successor-ring owner sets,
  stability of surviving original owners across deaths, factor clamping;
- :class:`ReplicatedStore` fan-out — with factor ``f`` every key is
  present on exactly ``f`` ranks after quiesce, with equal values;
- read failover under a shared fill — reads coalesced onto one
  read-through whose primary then dies all complete on the replica;
- dead-peer accounting — a run folded into a buffer toward a peer that
  dies is dropped whole, every one of its updates counted once;
- write records at a death — a write is lost only when every owner
  died, and each settles exactly once;
- admission control — a backlog limit sheds load as the typed
  :class:`Overloaded` rejection, counted in the service record and never
  silently folded into availability.
"""

import pytest

import repro.upcxx as upcxx
from repro.upcxx.replication import ReplicaMap
from tests import golden

N = 8


# ---------------------------------------------------------------- ReplicaMap
def test_owner_sets_are_distinct_ring_successors():
    m = ReplicaMap(N, factor=3, dead=set())
    for key in range(200):
        owners = m.owners(key)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        home = m.home(key)
        assert owners == [(home + i) % N for i in range(3)]
        assert m.primary(key) == owners[0]


def test_factor_clamped_to_rank_count():
    m = ReplicaMap(3, factor=16, dead=set())
    assert m.owners(0) == [m.home(0) % 3, (m.home(0) + 1) % 3, (m.home(0) + 2) % 3]


def test_surviving_original_owners_stay_owners_after_death():
    """The anti-entropy proof rests on this: a death only moves walk
    positions *earlier*, so every surviving original owner remains in the
    owner set and ring order among them is preserved."""
    m = ReplicaMap(N, factor=2, dead=set())
    before = {k: m.owners(k) for k in range(300)}
    dead = 3
    m.dead.add(dead)
    for k, old in before.items():
        new = m.owners(k)
        assert len(new) == 2 and dead not in new
        survivors = [r for r in old if r != dead]
        # surviving originals keep their relative order at the front
        assert new[: len(survivors)] == survivors
        if dead in old:
            # the recruit is the next alive successor past the old set
            assert new[-1] not in old



def test_factor_one_owner_fails_over_after_mark_dead():
    """Factor 1 answers ``[home]`` while nobody is dead; a death moves a
    dead home's keys to the next alive rank, as the same list form."""
    dead = set()
    m = ReplicaMap(N, factor=1, dead=dead)
    before = {k: m.owners(k) for k in range(300)}
    assert before == {k: [m.home(k)] for k in range(300)}
    dead.update((3, 4))  # the map reads the set it was given
    for k, old in before.items():
        expect = [5] if old[0] in (3, 4) else old
        assert m.owners(k) == expect and type(m.owners(k)) is list
        assert m.primary(k) == expect[0]


def test_dead_override_matches_marked_state():
    m = ReplicaMap(N, factor=2, dead=set())
    with_arg = {k: m.owners(k, dead={5}) for k in range(100)}
    m.dead.add(5)
    assert with_arg == {k: m.owners(k) for k in range(100)}


# ----------------------------------------------------- placement fan-out
@pytest.mark.parametrize("factor", [1, 2, 3])
def test_every_key_lands_on_exactly_factor_ranks(factor):
    """After quiesce each written key exists on exactly ``factor`` ranks
    and every copy holds the same combined value."""
    from repro.upcxx.replication import ReplicatedStore

    def body():
        me = upcxx.rank_me()
        store = ReplicatedStore("+", batch_size=4, replication=factor,
                                credits=4, max_dwell=5e-6)
        upcxx.barrier()
        for i in range(12):
            store.update((me * 5 + i) % 24, me + i + 1)
        store.store.quiesce()
        upcxx.barrier()
        return store.store.local_items()

    shards = upcxx.run_spmd(body, 4)
    seen: dict = {}
    for shard in shards:
        for key, val in shard.items():
            seen.setdefault(key, []).append(val)
    assert seen  # the writes actually landed somewhere
    for key, copies in seen.items():
        assert len(copies) == factor, f"key {key}: {len(copies)} copies"
        assert len(set(copies)) == 1, f"key {key}: diverging replicas"


def test_read_of_missing_key_calls_back_with_none():
    """A ``None`` reply is an empty future; the tracked-read continuation
    must still complete the read and hand ``None`` to the callback."""
    from repro.upcxx.replication import ReplicatedStore

    def body():
        store = ReplicatedStore("+", batch_size=4, replication=2)
        upcxx.barrier()
        seen = []
        store.read("never-written", cb=lambda k, v: seen.append((k, v)))
        while store.reads_outstanding():
            upcxx.progress()
        store.store.quiesce()
        upcxx.barrier()
        return seen

    assert upcxx.run_spmd(body, 4) == [[("never-written", None)]] * 4


def test_exclude_dead_builds_the_alive_subteam():
    """The store builds its quiescence team itself from the ranks it has
    not excluded; excluding the same rank again keeps that team, and the
    drain collectives complete on it without the excluded rank."""
    from repro.upcxx.aggregator import AggStore

    def body():
        store = AggStore("+", batch_size=4)
        if upcxx.rank_me() == 2:
            return None
        store.exclude_dead(2)
        team = store.quiesce_team
        store.exclude_dead(2)
        upcxx.barrier(team=team)
        store.quiesce()
        return team.members, store.quiesce_team is team

    assert upcxx.run_spmd(body, 3) == [([0, 1], True), ([0, 1], True), None]


# ------------------------------------------- failover under a shared fill
@pytest.mark.parametrize(
    "spec,dead,t_die", zip(golden.REPLICATED_CRASH_SPECS, (3, 1), (2e-4, 1e-4))
)
def test_reads_sharing_a_fill_to_a_dying_primary_all_fail_over(spec, dead, t_die):
    """Three reads of one key coalesce onto one read-through that reaches
    a corpse.  The death handler forgets the fill, so each tracked read is
    re-issued (and coalesces afresh) against the new primary: none hangs,
    none is answered with the default."""
    from repro.upcxx.replication import ReplicatedStore

    def body():
        rt = upcxx.runtime_here()
        store = ReplicatedStore("replace", batch_size=4, replication=2, credits=4,
                                max_dwell=5e-6, cache_capacity=8)
        key = next(k for k in range(256) if store.map.primary(k) == dead)
        upcxx.barrier()
        if upcxx.rank_me() == 0:
            store.update(key, 4242)
        store.store.quiesce()
        rt.compute(t_die - 1e-7 - rt.now())  # the request is on the wire at t_die
        seen = []
        for _ in range(3):
            store.read(key, default=-1, cb=lambda _k, v: seen.append(v))
        in_flight = store.stats()
        while store.reads_outstanding():
            upcxx.progress()
        store.store.quiesce()
        store.anti_entropy()
        return seen, in_flight, store.stats()

    res = upcxx.run_spmd(body, 4, seed=9, faults=spec)
    assert res[dead] is None
    survivors = [r for r in res if r is not None]
    assert len(survivors) == 3
    for seen, in_flight, s in survivors:
        assert seen == [4242] * 3
        assert (in_flight["cache_misses"], in_flight["reads_coalesced"]) == (1, 2)
        assert (s["cache_misses"], s["reads_coalesced"]) == (2, 4)
        assert s["failover_reads"] == 3


# ------------------------------------- a dead peer's buffer and its runs
@pytest.mark.parametrize(
    "spec,dead", zip(golden.REPLICATED_CRASH_SPECS, (3, 1))
)
def test_a_run_buffered_for_a_dying_peer_is_dropped_whole(spec, dead):
    """Every rank folds a run of one key into its buffer toward a peer
    that then dies.  The exclusion drops the buffer with the run's
    application updates, so each update addressed to the store is
    counted exactly once — shipped or dropped — and quiescence closes
    over the survivors."""
    from repro.upcxx.replication import ReplicatedStore

    def body():
        rt = upcxx.runtime_here()
        store = ReplicatedStore("+", batch_size=64, replication=2, credits=4,
                                combine_at_source=True)
        agg = store.store
        hot = next(k for k in range(256) if store.map.primary(k) == dead)
        cold = next(k for k in range(256) if dead not in store.map.owners(k))
        upcxx.barrier()
        addressed = 0
        for key in (hot,) * 5 + (cold,):
            addressed += len(store.map.owners(key))
            store.update(key, 1)
        held = list(agg._buf_keys[dead])
        while not store.deaths_seen:
            rt.compute(1e-6)
            upcxx.progress()
        dropped = agg.updates_dropped
        agg.quiesce()
        return held, dropped, addressed, agg.stats()

    res = upcxx.run_spmd(body, 4, seed=9, faults=spec)
    assert res[dead] is None
    survivors = [r for r in res if r is not None]
    assert len(survivors) == 3
    for held, dropped, addressed, s in survivors:
        assert len(held) == 1  # five updates, one buffered entry
        assert dropped == 5
        assert s["updates_sent"] + s["updates_dropped"] == addressed
        assert s["updates_combined"] == 4  # the other owner's run shipped


# ------------------------------------------------ two deaths at factor 3
def _kv_rf3(spec, monkeypatch):
    """The tiny KV service at replication 3 through ``spec``: the config
    and per-rank records (``None`` for a dead rank), each carrying the
    rank's shard after the drain."""
    from repro.apps.kvservice import KvService, default_config
    from repro.bench.kv_bench import run_kv

    result = KvService.result
    monkeypatch.setattr(
        KvService, "result", lambda self: dict(result(self), shard=self._store.local_items())
    )
    cfg = dict(default_config("tiny"), replication=3)
    return cfg, run_kv(cfg, faults=spec)[0]


def test_a_recruit_that_dies_before_acking_is_forgiven(monkeypatch):
    """Rank 3 dies and rank 1 ships a key to recruit 4, which dies before
    it acks.  The second death forgives that ship, and rank 1's re-ship
    to the next recruit restores the factor once it is acked."""
    from repro.bench.kv_bench import summarize_point

    cfg, res = _kv_rf3("seed=7,crash=3@2e-4+4@2.5e-4,survive=1", monkeypatch)
    assert [r is None for r in res] == [False] * 3 + [True] * 2 + [False] * 3
    assert all(r["factor_restored"] for r in res if r is not None)
    assert res[1]["rereplicated_keys"] == 2
    assert res[1]["recovery_s"] > 0.0
    assert summarize_point(cfg, res)["factor_restored"]


def test_the_second_death_ships_from_the_first_death_owner_sets(monkeypatch):
    """Rank 5 dies after rank 3: stage-1 re-replication plans against the
    owner sets that already exclude rank 3, and the drain syncs against
    the original ones.  Pinned per (key, surviving owner) after the drain."""
    from repro.bench.kv_bench import summarize_point

    cfg, res = _kv_rf3("seed=7,crash=3@2e-4+5@4e-4,survive=1", monkeypatch)
    point = summarize_point(cfg, res)
    assert {k: point[k] for k in ("rereplicated_keys", "synced_keys",
                                  "failover_reads", "availability")} == {
        "rereplicated_keys": 26, "synced_keys": 58, "failover_reads": 40,
        "availability": 1.0,
    }
    m = ReplicaMap(cfg["ranks"], 3, {3, 5})
    keys = set().union(*(r["shard"] for r in res if r is not None))
    held = sorted((k, o, res[o]["shard"].get(k)) for k in keys for o in m.owners(k))
    assert len(keys) == 77
    assert all(v is not None for _k, _o, v in held)
    assert golden.digest(held) == (
        "c463822bb7b11afe65610feb5437bab0a06c738c96044a46ec878afb9a032bec"
    )


# ------------------------------------------------- write records at a death
@pytest.mark.parametrize("factor,lost", [(1, 3), (2, 0)])
def test_a_write_is_lost_only_when_every_owner_died(factor, lost):
    """Each survivor buffers three writes of keys the dying rank owns and
    one of a key it does not.  At factor 1 the death settles exactly the
    three as lost; at factor 2 a surviving owner's ack completes them.
    Either way every write settles once: done + lost == issued, and no
    record stays open."""
    from repro.apps.kvservice import KvService

    spec, dead = golden.REPLICATED_CRASH_SPECS[0], 3

    def body():
        rt = upcxx.runtime_here()
        svc = KvService(batch_size=64, credits=4, replication=factor)
        owners = svc._repl.map.owners
        doomed = [k for k in range(256) if dead in owners(k)][:3]
        spared = next(k for k in range(256) if dead not in owners(k))
        upcxx.barrier()
        for key in doomed + [spared]:
            svc.put(key, key + 1, upcxx.sim_now())
        while not svc._repl.deaths_seen:
            rt.compute(1e-6)
            upcxx.progress()
        svc.drain()
        open_records = len(svc._w_t) + len(svc._w_live)
        return svc.writes_issued, svc.writes_done, svc.writes_lost, open_records

    res = upcxx.run_spmd(body, 4, seed=9, faults=spec)
    assert res[dead] is None
    for issued, done, lost_here, open_records in (r for r in res if r is not None):
        assert (issued, lost_here, done + lost_here) == (4, lost, 4)
        assert open_records == 0  # a settled record keeps no entry


# ------------------------------------------------------- admission control
def test_admission_limit_sheds_as_typed_overloaded():
    from repro.apps.kvservice import KvService, Overloaded, default_config

    cfg = default_config("tiny")

    def body():
        svc = KvService(batch_size=8, credits=4, max_dwell=cfg["max_dwell"],
                        cache_capacity=32, admission_limit=2)
        me = upcxx.rank_me()
        shed = 0
        for i in range(40):
            now = upcxx.sim_now()
            try:
                if i % 4 == 0:
                    svc.get((me * 7 + i) % cfg["n_keys"], now)
                else:
                    svc.put((me * 7 + i) % cfg["n_keys"], i + 1, now)
            except Overloaded:
                shed += 1
        svc.drain()
        rec = svc.result()
        assert rec["requests_shed"] == shed
        return rec

    for rec in upcxx.run_spmd(body, 4, ppn=2):
        # an open loop at full speed against a backlog of 2 must shed
        assert rec["requests_shed"] > 0
        assert 0.0 < rec["shed_fraction"] < 1.0
        # shed requests never pollute availability: served/issued counts
        # admitted traffic only, and everything admitted was served
        assert rec["requests_served"] == rec["requests_issued"]
        assert rec["availability"] == 1.0
        assert rec["writes_lost"] == 0


def test_no_admission_limit_never_sheds():
    from repro.apps.kvservice import default_config, kv_rank_body

    cfg = default_config("tiny")
    cfg.update({"ranks": 4, "ppn": 2, "n_requests": 32, "n_keys": 64})
    for rec in upcxx.run_spmd(lambda: kv_rank_body(cfg), 4, ppn=2):
        assert rec["requests_shed"] == 0
        assert rec["shed_fraction"] == 0.0
