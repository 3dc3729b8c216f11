"""Property-based fuzzing: random SPMD programs checked against an oracle.

Hypothesis generates random sequences of communication operations (puts,
gets, RPC increments, atomics) with deterministic targets; the final
global memory state is computed two ways — through the full simulated
stack, and by a trivial sequential oracle — and must match exactly.
Because each rank's operations target disjoint slots, the outcome is
order-independent and the oracle is exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.upcxx as upcxx

N_RANKS = 4
SLOTS = 8  # slots per rank

# one operation: (kind, src_rank, dst_rank, slot, value)
_op = st.tuples(
    st.sampled_from(["put", "rpc_add", "atomic_add", "put_then_get"]),
    st.integers(0, N_RANKS - 1),  # src
    st.integers(0, N_RANKS - 1),  # dst
    st.integers(0, SLOTS - 1),  # slot
    st.integers(1, 100),  # value
)


def _slot_owner_key(src: int, slot: int, cls: int = 0) -> int:
    """Each (src, slot, op-class) triple writes a distinct destination
    slot, so operations never race: puts use even cells, atomics odd ones
    (their completion orders are independent in the real library too)."""
    return (2 * (src * SLOTS + slot) + cls) % (2 * SLOTS * N_RANKS)


def _oracle(ops) -> np.ndarray:
    """Sequential model of the final memory: mem[rank, slot].

    Mirrors the simulated program's layout: puts land in RMA memory,
    RPC adds in a separate shard, atomics in the RMA memory — the final
    observable is their sum (puts overwrite only the put space).
    """
    puts = np.zeros((N_RANKS, 2 * SLOTS * N_RANKS), dtype=np.int64)
    adds = np.zeros((N_RANKS, 2 * SLOTS * N_RANKS), dtype=np.int64)
    for kind, src, dst, slot, value in ops:
        if kind == "put" or kind == "put_then_get":
            puts[dst, _slot_owner_key(src, slot, 0)] = value  # last put wins
        elif kind == "atomic_add":
            puts[dst, _slot_owner_key(src, slot, 1)] += value
        elif kind == "rpc_add":
            adds[dst, _slot_owner_key(src, slot, 0)] += value
    return puts + adds


def _rpc_add(dobj, key, value):
    dobj.value[key] += value


def _run_simulated(ops, faults=None) -> np.ndarray:
    result = np.zeros((N_RANKS, 2 * SLOTS * N_RANKS), dtype=np.int64)

    def body():
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        g = upcxx.new_array(np.int64, 2 * SLOTS * N_RANKS)
        g.local()[:] = 0
        adds = upcxx.DistObject(np.zeros(2 * SLOTS * N_RANKS, dtype=np.int64))
        ptrs = [upcxx.broadcast(g, root=r).wait() for r in range(n)]
        ad = upcxx.AtomicDomain(["add"], np.int64)
        upcxx.barrier()

        # puts from the same (src, slot) must apply in program order, so
        # chain them; independent slots pipeline freely
        last_put: dict = {}
        pending = []
        for kind, src, dst, slot, value in ops:
            if src != me:
                continue
            if kind in ("put", "put_then_get"):
                key = _slot_owner_key(src, slot, 0)
                dest_ptr = ptrs[dst][key]
                prev = last_put.get((dst, key))
                if prev is None:
                    f = upcxx.rput(value, dest_ptr)
                else:
                    f = prev.then(lambda v=value, p=dest_ptr: upcxx.rput(v, p))
                last_put[(dst, key)] = f
                pending.append(f)
                if kind == "put_then_get":
                    pending.append(f.then(lambda p=dest_ptr: upcxx.rget(p)))
            elif kind == "rpc_add":
                key = _slot_owner_key(src, slot, 0)
                pending.append(upcxx.rpc(dst, _rpc_add, adds, key, value))
            elif kind == "atomic_add":
                key = _slot_owner_key(src, slot, 1)
                pending.append(ad.add(ptrs[dst][key], value))
        if pending:
            upcxx.when_all(*pending).wait()
        upcxx.barrier()  # everyone's one-sided ops are globally complete
        # merge the RPC-side adds into the RMA memory for comparison
        combined = g.local() + adds.value
        result[me, :] = combined
        upcxx.barrier()

    upcxx.run_spmd(body, N_RANKS, faults=faults)
    return result


@settings(max_examples=12, deadline=None)
@given(st.lists(_op, min_size=1, max_size=25))
def test_random_programs_match_oracle(ops):
    assert np.array_equal(_run_simulated(ops), _oracle(ops))


#: seeded fault plans for the chaos fuzz dimension: lossy/jittery links
#: (where the reliability layer must still deliver exactly-once and the
#: oracle must match), plus whole-rank crashes (where the run must end
#: with a typed verdict, never a hang)
_FAULT_SPECS = [
    "seed=11,drop=0.15,dup=0.1",
    "seed=12,jitter=1e-6,dup=0.2",
    "seed=13,drop=0.3,jitter=5e-7,stall=20000:2e-6",
    "seed=14,crash=1@5e-5",
    "seed=15,drop=0.2,crash=3@2e-4",
]


@settings(max_examples=12, deadline=None)
@given(st.lists(_op, min_size=1, max_size=25), st.sampled_from(_FAULT_SPECS))
def test_random_programs_under_faults(ops, spec):
    """Chaos dimension: every program either completes with the exact
    oracle answer (reliable delivery is exactly-once despite drops,
    duplicates, jitter, and NIC stalls) or raises a *typed* error when a
    rank crashes — it must never hang or return corrupted memory."""
    from repro.sim.errors import DeadlockError, RankDeadError, RankFailure

    try:
        got = _run_simulated(ops, faults=spec)
    except (RankFailure, RankDeadError, DeadlockError):
        assert "crash" in spec  # only rank death may abort the run
        return
    assert np.array_equal(got, _oracle(ops))


def test_oracle_helper_sanity():
    ops = [("put", 0, 1, 0, 5), ("rpc_add", 2, 1, 0, 3), ("atomic_add", 0, 1, 0, 2)]
    mem = _oracle(ops)
    assert mem[1, _slot_owner_key(0, 0, 0)] == 5  # the put
    assert mem[1, _slot_owner_key(0, 0, 1)] == 2  # the atomic
    assert mem[1, _slot_owner_key(2, 0, 0)] == 3  # the rpc add


# ======================================================================
# Aggregator dimension: random AggStore op sequences vs a sum oracle
# ======================================================================
N_AGG_KEYS = 32

# one aggregated op: (src_rank, key, delta)
_agg_op = st.tuples(
    st.integers(0, N_RANKS - 1),
    st.integers(0, N_AGG_KEYS - 1),
    st.integers(1, 50),
)


def _agg_oracle(ops) -> dict:
    """Sequential model: '+'-combine is order-independent, so the final
    store is exactly the per-key sum of every rank's deltas."""
    out: dict = {}
    for _src, key, delta in ops:
        out[key] = out.get(key, 0) + delta
    return out


def _run_agg_simulated(ops, batch_size, faults=None):
    """Push the op sequence through AggStore; read back the full keyspace.

    Interleaves poll() (the dwell pacing hook) and mid-stream flushes so
    random programs exercise partial-batch, full-batch, and quiesce-swept
    paths; reads go through a hot-key cache on every rank.
    """
    from repro.upcxx.aggregator import AggStore

    def body():
        me = upcxx.rank_me()
        store = AggStore("+", batch_size=batch_size, credits=2,
                         max_dwell=5e-6, cache_capacity=8)
        upcxx.barrier()
        for i, (src, key, delta) in enumerate(ops):
            if src != me:
                continue
            store.update(key, delta)
            if i % 7 == 3:
                store.poll()
            if i % 11 == 5:
                store.flush()
        store.quiesce()
        vals = tuple(store.read(k, default=0).wait() for k in range(N_AGG_KEYS))
        store.quiesce()  # settle read-triggered invalidation watchers
        upcxx.barrier()
        return vals

    return upcxx.run_spmd(body, N_RANKS, faults=faults)


@settings(max_examples=12, deadline=None)
@given(st.lists(_agg_op, min_size=1, max_size=40),
       st.sampled_from([1, 3, 8, 64]))
def test_random_agg_programs_match_oracle(ops, batch_size):
    expected = _agg_oracle(ops)
    want = tuple(expected.get(k, 0) for k in range(N_AGG_KEYS))
    for got in _run_agg_simulated(ops, batch_size):
        assert got == want


# ======================================================================
# Replication dimension: random programs vs the sum oracle THROUGH a crash
# ======================================================================
#: survivable single-crash plans paired with the rank they kill.  The
#: crashing rank issues no updates (its partially-delivered batches would
#: not be oracle-predictable); every *surviving* writer's deltas must be
#: fully accounted for in the post-recovery store.
_SURVIVABLE_SPECS = [
    ("seed=41,crash=1@5e-5,survive=1", 1),
    ("seed=42,crash=2@2e-4,survive=1", 2),
    ("seed=43,crash=0@1e-4,survive=1,detect=4e-5", 0),
    ("seed=44,drop=0.15,crash=3@1e-4,survive=1", 3),
]


def _run_repl_simulated(ops, crash_rank, spec, replication=2):
    """Push surviving ranks' ops through a ReplicatedStore while the plan
    kills ``crash_rank``, then read the whole keyspace back after drain +
    anti-entropy.  Returns per-rank value tuples (None for the dead rank)."""
    from repro.upcxx.replication import ReplicatedStore

    def body():
        me = upcxx.rank_me()
        rt = upcxx.runtime_here()
        got: dict = {}
        store = ReplicatedStore("+", batch_size=4, replication=replication,
                                credits=2, max_dwell=5e-6, cache_capacity=8,
                                on_read=lambda _t, key, v: got.__setitem__(key, v))
        upcxx.barrier()
        for i, (src, key, delta) in enumerate(ops):
            if src != me or src == crash_rank:
                continue
            store.update(key, delta)
            if i % 7 == 3:
                store.store.poll()
        # park past the detection horizon so the drain collectives start
        # on the final alive membership everywhere (same idiom as the KV
        # service body)
        faults = rt.world.faults
        t_settle = max(t + faults.detect_timeout
                       for t in faults.crashes.values())
        if rt.now() < t_settle:
            sched = rt.sched
            sched.post_at(t_settle, lambda: sched.wake(me, t_settle))
            rt.wait_quiet(lambda: rt.now() >= t_settle, "fuzz::settle")
        upcxx.progress()

        store.store.quiesce()
        for k in range(N_AGG_KEYS):
            store.read(k, default=0)
        rt.wait_quiet(lambda: store.reads_outstanding() == 0, "fuzz::reads")
        store.store.quiesce()  # settle read-triggered invalidation watchers
        store.anti_entropy()
        upcxx.barrier(team=store.store.quiesce_team)
        return tuple(got.get(k, 0) for k in range(N_AGG_KEYS))

    return upcxx.run_spmd(body, N_RANKS, faults=spec)


@settings(max_examples=8, deadline=None)
@given(st.lists(_agg_op, min_size=1, max_size=40),
       st.sampled_from(_SURVIVABLE_SPECS))
def test_random_replicated_programs_survive_crash(ops, spec_and_rank):
    """Replication dimension: with factor 2 a survivable rank crash must
    not cost any surviving writer's data — after failover + drain-time
    anti-entropy, every survivor reads back exactly the oracle sums of
    the surviving ranks' deltas.  The dead rank's slot is None; the run
    completes (never hangs, never raises)."""
    spec, crash_rank = spec_and_rank
    live_ops = [op for op in ops if op[0] != crash_rank]
    expected = _agg_oracle(live_ops)
    want = tuple(expected.get(k, 0) for k in range(N_AGG_KEYS))
    results = _run_repl_simulated(ops, crash_rank, spec)
    for rank, got in enumerate(results):
        if rank == crash_rank:
            assert got is None
        else:
            assert got == want, f"rank {rank} diverged from the sum oracle"


@settings(max_examples=10, deadline=None)
@given(st.lists(_agg_op, min_size=1, max_size=40),
       st.sampled_from([1, 8]),
       st.sampled_from(_FAULT_SPECS))
def test_random_agg_programs_under_faults(ops, batch_size, spec):
    """Chaos dimension for the aggregation layer: under lossy/jittery
    links the batched updates, acks, and invalidations must still settle
    to the exact oracle sums; a rank crash may only surface as a typed
    error — never a hang, never silent corruption."""
    from repro.sim.errors import DeadlockError, RankDeadError, RankFailure

    expected = _agg_oracle(ops)
    want = tuple(expected.get(k, 0) for k in range(N_AGG_KEYS))
    try:
        results = _run_agg_simulated(ops, batch_size, faults=spec)
    except (RankFailure, RankDeadError, DeadlockError):
        assert "crash" in spec  # only rank death may abort the run
        return
    for got in results:
        assert got == want
