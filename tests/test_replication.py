"""Replication layer unit + integration surface.

Covers the pieces the chaos suites exercise only end-to-end:

- :class:`ReplicaMap` placement invariants — successor-ring owner sets,
  stability of surviving original owners across deaths, factor clamping;
- :class:`ReplicatedStore` fan-out — with factor ``f`` every key is
  present on exactly ``f`` ranks after quiesce, with equal values;
- read failover under a shared fill — reads coalesced onto one
  read-through whose primary then dies all complete on the replica;
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
    m = ReplicaMap(N, factor=3)
    for key in range(200):
        owners = m.owners(key)
        assert len(owners) == 3
        assert len(set(owners)) == 3
        home = m.home(key)
        assert owners == [(home + i) % N for i in range(3)]
        assert m.primary(key) == owners[0]


def test_factor_clamped_to_rank_count():
    m = ReplicaMap(3, factor=16)
    assert m.owners(0) == [m.home(0) % 3, (m.home(0) + 1) % 3, (m.home(0) + 2) % 3]


def test_surviving_original_owners_stay_owners_after_death():
    """The anti-entropy proof rests on this: a death only moves walk
    positions *earlier*, so every surviving original owner remains in the
    owner set and ring order among them is preserved."""
    m = ReplicaMap(N, factor=2)
    before = {k: m.owners(k) for k in range(300)}
    dead = 3
    m.mark_dead(dead)
    assert m.alive() == [r for r in range(N) if r != dead]
    for k, old in before.items():
        new = m.owners(k)
        assert len(new) == 2 and dead not in new
        survivors = [r for r in old if r != dead]
        # surviving originals keep their relative order at the front
        assert new[: len(survivors)] == survivors
        if dead in old:
            # the recruit is the next alive successor past the old set
            assert new[-1] not in old


def test_dead_override_matches_marked_state():
    m = ReplicaMap(N, factor=2)
    with_arg = {k: m.owners(k, dead={5}) for k in range(100)}
    m.mark_dead(5)
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
        return dict(store.local_items())

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
