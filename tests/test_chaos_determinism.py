"""Chaos determinism: fault injection must be exactly reproducible.

The fault plan draws every decision (drop, duplicate, jitter, stall,
crash) from its own seeded stream — decoupled from application RNG — and
the reliable-delivery layer resolves each operation's full retransmit
ladder analytically at send time.  Consequently the *same seed + same
plan* must yield bit-identical results, trace fingerprints, and span
fingerprints — the committed golden fingerprints (``tests/golden.py``) —
and a zero-rate plan must be indistinguishable from running with faults
disabled.

Also pinned here:

- drop/dup/jitter-injected DHT runs converge to byte-identical final
  memory vs the fault-free run (reliable delivery is exactly-once at the
  UPC++ level, so data-plane chaos may shift timing but never results);
- rank crashes surface as :class:`RankDeadError` with the golden rank
  attribution and message, and the run always terminates (no-hang
  guarantee);
- fault frames are charged to the cost model deterministically: the
  reliability frame counters are part of the golden results.
"""

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.sim.errors import DeadlockError, RankDeadError, RankFailure
from repro.sim.faults import FaultPlan
from tests import golden
from tests.golden import mixed_body as _mixed_body


# ---------------------------------------------------------------- identity
@pytest.mark.parametrize("seed", golden.CHAOS_SEEDS)
@pytest.mark.parametrize("plan", golden.CHAOS_PLANS)
def test_chaos_runs_reproduce_golden(seed, plan):
    """Same seed + same fault plan => the golden results, trace and span
    fingerprints."""
    name = f"chaos_mixed[seed={seed},{plan}]"
    golden.reproduces(name)
    # the check can fail: a different fault seed must actually perturb
    # the simulated timeline, i.e. differ from its golden entry
    other = golden.fingerprint(
        golden.chaos_mixed(f"seed={seed + 1},{plan}", seed=seed)
    )
    want = golden.load()[name]
    assert other["trace"] != want["trace"] or other["spans"] != want["spans"]


def test_chaos_seed13_reproduces_golden():
    """One more (seed, plan) point off the grid above: drop, dup and
    jitter together at seed 13."""
    golden.reproduces(f"chaos_mixed[{golden.SEED13_SPEC}]")


def test_zero_rate_plan_identical_to_disabled():
    """An armed plan with all rates zero is simulation-invisible."""

    def fp(faults):
        return golden.fingerprint(golden.chaos_mixed(faults))

    assert fp(None) == fp(FaultPlan(seed=9)) == fp("seed=9")


def test_frame_counters_reproduce_golden():
    """Retransmit/drop/dup/ack counters are part of the deterministic
    surface."""
    run = golden.reproduces("chaos_frame_counters")
    assert run.results[1]["frames_dropped"] > 0  # the plan actually bit


# ------------------------------------------------------------- convergence
def test_drop_injected_dht_converges_byte_identical():
    """A lossy network may reorder and retransmit, but the DHT's final
    contents must equal the fault-free run byte for byte."""

    def body():
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        store = upcxx.DistObject(np.zeros(64, dtype=np.int64))

        def insert(dobj, key, value):
            dobj.value[key] += value

        futs = []
        for i in range(8):
            key = (me * 13 + i * 7) % 64
            futs.append(upcxx.rpc((me + i + 1) % n, insert, store, key, me * 100 + i))
        upcxx.when_all(*futs).wait()
        upcxx.barrier()
        return store.value.tobytes()

    clean = upcxx.run_spmd(body, 4, seed=2)
    for spec in ("seed=21,drop=0.3", "seed=22,drop=0.15,dup=0.2,jitter=1e-6"):
        chaotic = upcxx.run_spmd(body, 4, seed=2, faults=spec)
        assert chaotic == clean


# ------------------------------------------------------------ rank crashes
@pytest.mark.parametrize("spec,dead_rank", zip(golden.CRASH_SPECS, (2, 0, 1)))
def test_rank_crash_verdict_reproduces_golden(spec, dead_rank):
    """Crashes surface as RankDeadError with the golden rank and message;
    survivors abort cleanly instead of hanging.  (Span streams
    legitimately end early on the failing path, so the golden entry is
    the typed verdict, not fingerprints.)"""
    assert golden.reproduces(f"crash_verdict[{spec}]").results[0] == dead_rank


def test_crash_before_any_communication():
    with pytest.raises(RankDeadError) as ei:
        upcxx.run_spmd(golden.crash_body, 4, seed=5, faults="crash=3@0.0")
    assert ei.value.rank == 3


# ----------------------------------------------------- aggregation layer
@pytest.mark.parametrize("plan", golden.CHAOS_PLANS)
def test_aggregated_chaos_reproduces_golden(plan):
    """The aggregation subsystem (batched frames, acks, invalidations)
    joins the chaos surface: same seed + same fault plan => the golden
    results, trace, and span fingerprints."""
    run = golden.reproduces(f"chaos_agg[{plan}]")
    # and the store's contents survive the chaos: identical to fault-free
    clean = golden.chaos_agg(None)
    assert run.results[0][0] == clean.results[0][0]  # rank 0's read-back values


def test_aggregated_crash_typed_verdict():
    """A rank crash mid-aggregation (updates buffered, credits out,
    watchers registered) must end in RankDeadError with the golden rank
    attribution — never a hang in quiesce."""
    golden.reproduces("chaos_agg_crash")


def test_kvservice_chaos_reproduces_golden():
    """The full served-KV workload (open-loop pacing + aggregation +
    cache) stays bit-identical under an armed fault plan."""
    run = golden.reproduces("kv_chaos")
    total = sum(r["reads"] + r["writes"] for r in run.results)
    assert total == 4 * 48  # ranks x n_requests: chaos lost nothing


# ----------------------------------------- replicated survivable crashes
@pytest.mark.parametrize("spec,dead_rank", zip(golden.REPLICATED_CRASH_SPECS, (3, 1)))
def test_replicated_crash_reproduces_golden(spec, dead_rank):
    """With replication factor 2 a survivable crash plan completes the
    run (no RankDeadError): failover reads retarget to surviving
    replicas, re-replication restores the factor, and the whole
    timeline — per-rank records, span fingerprints (recovery spans
    included) and event counts — is the golden one.  The dead rank's
    result slot is None."""
    records = golden.reproduces(f"kv_replicated_crash[{spec}]").results
    assert records[dead_rank] is None
    survivors = [r for r in records if r is not None]
    assert len(survivors) == 3
    issued = sum(r["requests_issued"] for r in survivors)
    served = sum(r["requests_served"] for r in survivors)
    assert issued > 0 and served / issued >= 0.99
    assert sum(r["writes_lost"] for r in survivors) == 0
    assert all(r["deaths_seen"] == 1 for r in survivors)
    assert all(r["factor_restored"] for r in survivors)
    # the service actually exercised the recovery path, not a quiet pass
    assert sum(r["rereplicated_keys"] for r in survivors) > 0


def test_replicated_crash_survives_only_with_replication():
    """Sanity for the gate's premise: the same survivable crash plan that
    completes under rf=2 also completes under rf=1 (the run survives),
    but only rf=2 re-replicates — rf=1 has no surviving copy to ship."""
    spec = golden.REPLICATED_CRASH_SPECS[0]
    rf2 = golden.kv_replicated_crash(spec, replication=2)
    rf1 = golden.kv_replicated_crash(spec, replication=1)
    s2 = [r for r in rf2.results if r is not None]
    s1 = [r for r in rf1.results if r is not None]
    assert sum(r["rereplicated_keys"] for r in s2) > 0
    assert sum(r["rereplicated_keys"] for r in s1) == 0


def test_fault_env_var_spec(monkeypatch):
    """REPRO_FAULTS configures run_spmd without code changes."""
    from repro.sim.faults import FAULTS_ENV

    monkeypatch.setenv(FAULTS_ENV, "seed=6,drop=0.2")
    with_env = upcxx.run_spmd(_mixed_body, 4, seed=6)
    monkeypatch.delenv(FAULTS_ENV)
    explicit = upcxx.run_spmd(_mixed_body, 4, seed=6, faults="seed=6,drop=0.2")
    assert with_env == explicit


# ----------------------------------------------------------- no-hang sweep
def test_fault_matrix_always_terminates():
    """Acceptance sweep: every (workload-seed, plan) cell completes with
    either the fault-free answer or a typed error — never a hang (the
    per-run wall clock is bounded by the suite timeout) and never silent
    corruption.  Data-plane chaos legitimately shifts simulated *timing*,
    so the comparison strips the trailing ``sim_now()`` element."""

    def data(results):
        return [r[:-1] for r in results]

    clean = {s: data(upcxx.run_spmd(_mixed_body, 4, seed=s)) for s in (1, 2)}
    specs = [
        "seed=31,drop=0.4,dup=0.3",
        "seed=32,jitter=2e-6,stall=50000:1e-6",
        "seed=33,drop=0.2,crash=2@1e-4",
        "seed=34,crash=0@0.0",
    ]
    for s in (1, 2):
        for spec in specs:
            try:
                got = upcxx.run_spmd(_mixed_body, 4, seed=s, faults=spec)
            except (RankDeadError, RankFailure, DeadlockError):
                assert "crash" in spec
                continue
            assert data(got) == clean[s], f"seed={s} spec={spec}: corrupted results"
