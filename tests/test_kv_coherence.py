"""The two laws of the hot-key cache protocol, checked by an oracle.

``AggStore`` keeps its read cache coherent with a directory: a
read-through registers the reader in the owner's sharer list for the
key, a write consumes the list and owes each member one invalidation.
After global quiescence that gives

1. *coherence* — every cached ``(k, v)`` on every rank equals the
   owner's ``data[k]``, and every rank caching ``k`` is in the owner's
   sharer list for ``k`` (so the next write will reach it);
2. *economy* — per owner, ``invals_sent <= sharers_registered``: an
   invalidation is owed only to a copy that exists.

Checked on a seeded fuzz of the bare store (source combining off and on)
and on the served KV workload, which always combines (plain, replicated,
saturated, and through both golden crash plans).
"""

import pytest

import repro.upcxx as upcxx
from repro.apps.kvservice import KvService
from repro.upcxx.aggregator import _ABSENT, AggStore
from tests import golden


def _snapshot(store: AggStore, primary_of) -> dict:
    """One rank's post-quiescence view; ``primary_of(k)`` names the rank
    whose shard and sharer list answer for ``k``."""
    cache = dict(store._cache)
    return {
        "cache": cache,
        "primary": {k: primary_of(k) for k in cache},
        "data": store.local_items(),
        "sharers": {k: list(ws) for k, ws in store.state["watchers"].items()},
        "stats": store.stats(),
    }


def _violations(snaps: list) -> list:
    """Every breach of the two laws; ``snaps`` is indexed by rank, ``None``
    for a rank that did not survive.  A key the owner does not hold is
    cached as the absent marker, never as some reader's default."""
    out = []
    for r, snap in enumerate(snaps):
        if snap is None:
            continue
        for k, v in snap["cache"].items():
            owner = snaps[snap["primary"][k]]
            if owner["data"].get(k, _ABSENT) != v:
                out.append(f"rank {r} caches {k}={v}, owner holds {owner['data'].get(k)}")
            if r not in owner["sharers"].get(k, ()):
                out.append(f"rank {r} caches {k} but is not in its owner's sharer list")
        s = snap["stats"]
        if s["invals_sent"] > s["sharers_registered"]:
            out.append(
                f"rank {r} sent {s['invals_sent']} invalidations "
                f"for {s['sharers_registered']} registrations"
            )
    return out


# ------------------------------------------------------------ the bare store
def _store_fuzz_violations(seed, credits, max_dwell, combine_at_source) -> list:
    def body():
        me = upcxx.rank_me()
        store = AggStore("replace", batch_size=4, credits=credits,
                         max_dwell=max_dwell, cache_capacity=8,
                         combine_at_source=combine_at_source)
        rng = upcxx.runtime_here().rng.spawn("coherence-fuzz").py
        upcxx.barrier()
        for i in range(300):
            op = rng.random()
            k = rng.randrange(24)
            if op < 0.45:
                store.update(k, me * 1000 + i)
            elif op < 0.9:
                store.read(k, default=0).wait()
            else:
                store.poll()
        store.quiesce()
        snap = _snapshot(store, store.dest_of)
        upcxx.barrier()
        return snap

    snaps = list(upcxx.run_spmd(body, 4, seed=seed))
    assert sum(len(s["cache"]) for s in snaps) > 0  # the oracle saw copies
    return _violations(snaps)


@pytest.mark.parametrize("max_dwell", [None, 2e-6])
@pytest.mark.parametrize("credits", [None, 2])
@pytest.mark.parametrize("seed", range(8))
def test_store_fuzz_keeps_both_laws(seed, credits, max_dwell):
    assert _store_fuzz_violations(seed, credits, max_dwell, False) == []


@pytest.mark.parametrize("max_dwell", [None, 2e-6])
@pytest.mark.parametrize("credits", [None, 2])
@pytest.mark.parametrize("seed", range(8))
def test_store_fuzz_keeps_both_laws_combining_at_source(seed, credits, max_dwell):
    assert _store_fuzz_violations(seed, credits, max_dwell, True) == []


# ---------------------------------------------------------- the served store
@pytest.fixture
def service_snapshots(monkeypatch):
    """Make every ``KvService.result()`` carry the rank's ``_snapshot``."""
    result = KvService.result

    def result_with_snapshot(self):
        out = result(self)
        out["snapshot"] = _snapshot(self._store, self._repl.map.primary)
        return out

    monkeypatch.setattr(KvService, "result", result_with_snapshot)


def _assert_service_coherent(min_survivors: int, **overrides) -> None:
    run = golden.kv_service(n_requests=400, read_fraction=0.5, **overrides)
    snaps = [r and r["snapshot"] for r in run.results]
    assert sum(s is not None for s in snaps) >= min_survivors
    assert _violations(snaps) == []
    for r in run.results:
        if r is not None:  # result() reports what the store counted
            assert r["invals_sent"] == r["snapshot"]["stats"]["invals_sent"]
            assert r["sharers_registered"] == r["snapshot"]["stats"]["sharers_registered"]


@pytest.mark.parametrize("variant", [{}, {"replication": 2}, {"rate": 1e9}],
                         ids=["plain", "rf2", "saturated"])
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_service_caches_match_primaries_after_drain(service_snapshots, seed, variant):
    _assert_service_coherent(4, seed=seed, **variant)


@pytest.fixture
def park_log(monkeypatch):
    """Record every park — ``(rank, t, batch seqs it shipped)`` — and the
    park-shipped batches a survivor still had in flight to a peer at the
    moment it learned of that peer's death."""
    log = {"parks": [], "orphaned": []}
    park, on_death = KvService.park, KvService._on_death

    def logged_park(self):
        first = self._store._batch_seq + 1
        park(self)
        log["parks"].append((upcxx.rank_me(), upcxx.sim_now(),
                             range(first, self._store._batch_seq + 1)))

    def logged_on_death(self, dead, t_detect):
        me = upcxx.rank_me()
        shipped_at_park = {q for r, _, seqs in log["parks"] if r == me for q in seqs}
        log["orphaned"] += [q for q, (d, _) in self._inflight.items()
                            if d == dead and q in shipped_at_park]
        on_death(self, dead, t_detect)

    monkeypatch.setattr(KvService, "park", logged_park)
    monkeypatch.setattr(KvService, "_on_death", logged_on_death)
    return log


@pytest.mark.parametrize("spec", golden.REPLICATED_CRASH_SPECS)
def test_service_caches_match_primaries_after_a_crash(service_snapshots, park_log, spec):
    _assert_service_coherent(3, seed=9, replication=2, faults=spec)
    # the plans cover both park-time deaths: the victim's last act was a
    # park, and a survivor was left holding a park-shipped batch the
    # victim will never ack
    dead, t_crash = {"crash=3@2e-4": (3, 2e-4), "crash=1@1e-4": (1, 1e-4)}[spec.split(",")[1]]
    parked = {r for r, _, _ in park_log["parks"]}
    assert parked == {0, 1, 2, 3}
    last = max(t for r, t, _ in park_log["parks"] if r == dead)
    assert t_crash - 5e-6 < last <= t_crash
    assert park_log["orphaned"]
