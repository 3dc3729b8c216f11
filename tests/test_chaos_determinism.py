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
from repro.util import Metrics, Telemetry
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
    """An armed plan with all rates zero is simulation-invisible: the same
    fingerprint, ``Metrics`` export included but for the acks the reliable
    channel counts."""

    def fp(faults):
        run = golden.chaos_mixed(faults)
        exported = run.metrics.as_dict()
        for rm in exported["ranks"]:
            rm["reliability"].pop("acks")
        return {**golden.fingerprint(run), "metrics": golden.digest(exported)}

    assert fp(None) == fp(FaultPlan(seed=9)) == fp("seed=9")


def test_a_plan_is_a_spec_string_or_a_faultplan_not_a_dict():
    with pytest.raises(TypeError):
        FaultPlan.resolve({"seed": 9})


@pytest.mark.parametrize("spec, field", [
    ("drop=1.5", "drop"),
    ("drop=-0.5", "drop"),
    ("dup=1.01", "dup"),
    ("seed=1,jitter=-4e-6", "jitter"),
    ("jitter=inf", "jitter"),
    ("stall=-5000:1e-5", "stall_rate"),
    ("stall=5000:-1e-5", "stall_s"),
    ("detect=nan", "detect_timeout"),
    ("crash=-1@1e-4", "crash"),
    ("crash=1@-1e-4", "crash"),
    ("crash=1@inf", "crash"),
])
def test_out_of_range_plan_values_are_rejected(monkeypatch, spec, field):
    """A spec is outside input: a value out of range raises a ValueError
    naming its field, from the spec string, from ``run_spmd(faults=...)``
    and from ``$REPRO_FAULTS`` alike (a negative jitter once made every
    frame retransmit ten times, and ``drop=1.5`` dropped every attempt)."""
    from repro.sim.faults import FAULTS_ENV

    with pytest.raises(ValueError, match=field):
        FaultPlan.parse(spec)
    with pytest.raises(ValueError, match=field):
        upcxx.run_spmd(_mixed_body, 2, faults=spec)
    monkeypatch.setenv(FAULTS_ENV, spec)
    with pytest.raises(ValueError, match=field):
        upcxx.run_spmd(_mixed_body, 2)


@pytest.mark.parametrize("spec", ["rto=1e-5", "max_retx=8"])
def test_the_retransmit_policy_is_not_a_spec_key(spec):
    """The timeout is derived from the channel (``rto_for``) and the
    ladder bound is ``MAX_RETX``: neither is a plan knob."""
    with pytest.raises(ValueError, match="unknown fault spec key"):
        FaultPlan.parse(spec)


def test_zero_rate_plan_same_nic_counters():
    """Reliable mode adds acks (``rel.acks``), nothing else: every
    telemetry window's NIC block — bytes of get replies included — reads
    the same with faults off and under a zero-rate plan."""

    def nic_windows(faults):
        tel = Telemetry(window_s=5e-6)
        upcxx.run_spmd(_mixed_body, 4, seed=5, faults=faults, telemetry=tel)
        return {r: [w["nic"] for w in rt.windows] for r, rt in tel.ranks.items()}

    off = nic_windows(None)
    assert len(off) == 4 and all(len(ws) > 2 for ws in off.values())
    assert nic_windows("seed=9") == off


@pytest.mark.parametrize("faults", [None, "seed=3,drop=0.2,dup=0.1"])
def test_metrics_agree_with_endpoint_counters(faults):
    """``Metrics``' NIC bytes and reliability block are the conduit
    endpoint's own counters, fault-free and under a lossy plan."""
    endpoints = {}

    def body():
        rt = upcxx.runtime_here()
        endpoints[rt.rank] = rt.conduit.endpoints[rt.rank]
        return _mixed_body()

    metrics = Metrics()
    upcxx.run_spmd(body, 4, seed=5, faults=faults, metrics=metrics)
    assert [rm.rank for rm in metrics.ranks] == [0, 1, 2, 3]
    for rm in metrics.ranks:
        ep = endpoints[rm.rank]
        d = rm.as_dict()
        assert d["nic"]["bytes"] == ep.bytes_out
        assert d["reliability"] == {
            "retransmits": ep.n_retx,
            "frames_dropped": ep.n_dropped,
            "frames_duplicated": ep.n_dup,
            "acks": ep.n_acks,
        }
    if faults is not None:
        # the plan bit: the comparison covers nonzero reliability counters
        assert sum(ep.n_retx for ep in endpoints.values()) > 0


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


def _compute_then_report():
    upcxx.compute(1e-6)
    return upcxx.rank_me()


def test_a_fatal_crash_fails_the_run_when_every_survivor_finished_first():
    """Rank 1 dies at 0.5 us and every survivor returns at 1 us, long
    before the 20 us heartbeat timeout fires: the fail-stop run still ends
    in rank 1's RankDeadError, blackbox included."""
    tel = Telemetry()
    with pytest.raises(RankDeadError) as ei:
        upcxx.run_spmd(_compute_then_report, 4, faults="crash=1@5e-7", telemetry=tel)
    assert ei.value.rank == 1
    assert tel.blackbox["verdict"]["type"] == "RankDeadError"
    assert tel.blackbox["verdict"]["rank"] == 1


@pytest.mark.parametrize("lookahead", [True, False])
def test_a_rank_whose_crash_passes_while_it_computes_reports_nothing(lookahead, monkeypatch):
    """Rank 1's crash time passes inside its compute and its body returns
    before any further library call: it died all the same.  Its slot is
    None and its death sinks ran at the crash time instead of its finish,
    with or without lookahead."""
    if not lookahead:
        monkeypatch.setattr("repro.gasnet.machine.lookahead", lambda network: 0.0)
    tel = Telemetry()
    out = upcxx.run_spmd(
        _compute_then_report, 4, faults="seed=1,crash=1@5e-7,survive=1", telemetry=tel,
    )
    assert out == [0, None, 2, 3]
    ranks = tel.blackbox["ranks"]
    assert ranks["1"]["died_at"] == 5e-7
    assert [ranks[r]["dead"] for r in "0123"] == [False, True, False, False]


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
