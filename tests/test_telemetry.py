"""Telemetry rollups, the blackbox post-mortem, and the health-gate CLI.

Covers the observability tentpole's three acceptance properties:

- windowed rollups equal the golden digest (``tests/golden.py`` — the
  same bar simulated results are held to);
- a rank crash produces a **blackbox** post-mortem bundle equal to the
  golden digest, frozen at the crash cutoff, its per-rank tails cut from
  the job's trace;
- ``repro.tools.health`` flags an above-knee (saturated) KV run and
  passes a below-knee one — and every rule it applies can be seen to
  FAIL (or WARN, from a real run: ``credit-stall-fraction``,
  ``retransmit-rate``, ``kv-write-dwell``), including "no rule applied"
  under ``--strict``.
"""

import json

import pytest

import repro.upcxx as upcxx
from repro.sim.errors import RankDeadError
from repro.tools import health
from repro.util.telemetry import BLACKBOX_SCHEMA, RING, RankTelemetry, Telemetry
from repro.util.trace import TraceBuffer
from tests import golden

N_RANKS = 4


def _run(tel):
    return upcxx.run_spmd(golden.ring_body, N_RANKS, ppn=2, seed=5, telemetry=tel)


# ------------------------------------------------------------------- rollups
def test_rollups_reproduce_golden():
    assert len(golden.reproduces("telemetry_rollups").results[0]) == N_RANKS


def test_kv_windows_reproduce_golden():
    """Every window of a replicated KV run through a survivable crash, the
    service layers' counters included, not just the blackbox's last one."""
    results, windows = golden.reproduces("kv_telemetry_windows").results
    assert [r for r, rec in enumerate(results) if rec is None] == [3]  # the crashed rank
    assert len(json.loads(windows)["ranks"]) == len(results)


def test_window_structure_and_monotonicity():
    tel = Telemetry()
    _run(tel)
    assert sorted(tel.ranks) == list(range(N_RANKS))
    for rank, rt in tel.ranks.items():
        wins = rt.windows
        assert wins, f"rank {rank} closed no windows"
        # cumulative counters never decrease; window times strictly grow
        for a, b in zip(wins, wins[1:]):
            assert b["t"] > a["t"]
            assert b["ams"] >= a["ams"]
            for key in ("puts", "gets", "ams", "amos", "bytes_out"):
                assert b["nic"][key] >= a["nic"][key], key
        last = wins[-1]
        assert last["final"] is True
        assert last["ams"] > 0
        assert set(last["nic"]) == {"puts", "gets", "ams", "amos",
                                    "bytes_out", "backlog_s"}
        assert set(last["rel"]) == {"retx", "dropped", "dup", "acks"}
        assert set(last["agg"]) == {"batches", "updates", "credit_stall_s",
                                    "cache_hits", "read_batches"}
        assert set(last["kv"]) == {"shed", "failover_reads", "rereplicated"}
        assert last["max_gap_s"] >= 0.0
        # windows only: no per-op ring or per-kind counters ride along
        assert not {"ring", "ops", "bytes", "executed"} & (set(last) | set(rt.as_dict()))


def test_a_used_telemetry_is_refused():
    """A Telemetry that already holds ranks keeps their freeze cutoff,
    window edges and windows, so a fault-free run on one that saw a crash
    would record one window per rank instead of dozens: ``run_spmd``
    refuses it, and a fresh one records in full."""
    tel = Telemetry()
    with pytest.raises(RankDeadError):
        upcxx.run_spmd(golden.ring_body, N_RANKS, ppn=2, seed=5, telemetry=tel,
                       faults=golden.TEL_CRASH_SPEC)
    with pytest.raises(ValueError, match="fresh Telemetry"):
        _run(tel)
    fresh = Telemetry()
    _run(fresh)
    assert all(len(rt.windows) > 1 for rt in fresh.ranks.values())


def test_an_entry_at_an_exact_edge_closes_its_window_once():
    """Entries at 26.5w, 27w, 27w and 27.2w close windows 26 and 27, and
    finishing at 27w closes 27 again as the final one.  ``int(27 * w / w)``
    is 26 in floating point: numbered that way, the edge's window was 26
    again, the edge stayed armed, and each later entry at that instant
    closed one more window (26, 26, 26, 27)."""
    w = 20e-6
    assert int(27 * w / w) == 26

    def body():
        rt, sink = upcxx.runtime_here(), RankTelemetry(0, w)
        for t in (26.5 * w, 27 * w, 27 * w, 27.2 * w):
            sink.enter(rt, t)
        sink.finish(rt, 27 * w)
        return [(win["w"], win["final"]) for win in sink.windows]

    assert upcxx.run_spmd(body, 1) == [[(26, False), (27, False), (27, True)]]


def test_rollups_respect_window_cadence():
    tel = Telemetry(window_s=5e-6)
    _run(tel)
    wide = Telemetry(window_s=1e-3)
    _run(wide)
    n_narrow = sum(len(rt.windows) for rt in tel.ranks.values())
    n_wide = sum(len(rt.windows) for rt in wide.ranks.values())
    assert n_narrow > n_wide  # finer cadence -> more windows


#: one credit per peer, two-entry batches and an admission limit at twice
#: the base rate, replicated: senders stall on credits and requests are
#: shed even fault-free (the default tiny point reads 0 for both)
BUSY_KV = {"replication": 2, "credits": 1, "batch_size": 2, "admission_limit": 24,
           "rate": 4e5}
#: window section and key -> the matching field of a rank's KV record
SERVICE_COUNTERS = {
    ("agg", "batches"): "batches_sent",
    ("agg", "updates"): "updates_sent",
    ("agg", "credit_stall_s"): "credit_stall_s",
    ("agg", "cache_hits"): "cache_hits",
    ("agg", "read_batches"): "read_batches",
    ("kv", "shed"): "requests_shed",
    ("kv", "failover_reads"): "failover_reads",
    ("kv", "rereplicated"): "rereplicated_keys",
}


@pytest.mark.parametrize("faults", [None, "seed=7,crash=3@3.5e-4,survive=1"],
                         ids=["fault-free", "crash"])
def test_window_counters_equal_the_stores_totals(faults):
    """A surviving rank's last window carries exactly what its own store
    and service counted.  The crashed rank is left out: its pre-crash
    counts are in telemetry, but it returns no record."""
    from repro.apps.kvservice import default_config
    from repro.bench.kv_bench import run_kv

    tel = Telemetry()
    results, _ = run_kv(dict(default_config("tiny"), **BUSY_KV), faults=faults, telemetry=tel)
    survivors = {r: rec for r, rec in enumerate(results) if rec is not None}
    assert len(survivors) == len(results) - (faults is not None)
    for r, rec in survivors.items():
        last = tel.ranks[r].windows[-1]
        assert {f: last[sec][k] for (sec, k), f in SERVICE_COUNTERS.items()} == \
            {f: rec[f] for f in SERVICE_COUNTERS.values()}, f"rank {r}"
    # control: the configuration moves the counters the comparison is about
    totals = {f: sum(rec[f] for rec in survivors.values()) for f in SERVICE_COUNTERS.values()}
    moved = {f for f, v in totals.items() if v}
    recovery = {"failover_reads", "rereplicated_keys"}
    assert moved == (set(totals) if faults else set(totals) - recovery), totals


# ------------------------------------------------------------------ blackbox
def _crash_bundle(path=None) -> str:
    return golden.telemetry_blackbox(path=path).results[2]


def test_blackbox_reproduces_golden():
    golden.reproduces("telemetry_blackbox")


def test_blackbox_contents():
    bb = json.loads(_crash_bundle())
    assert bb["schema"] == BLACKBOX_SCHEMA
    assert bb["verdict"]["type"] == "RankDeadError"
    assert bb["verdict"]["rank"] == 1
    assert bb["cutoff_s"] == pytest.approx(3e-4)
    ranks = bb["ranks"]
    assert sorted(ranks) == [str(r) for r in range(N_RANKS)]
    dead = ranks["1"]
    assert dead["dead"] is True
    assert dead["died_at"] == pytest.approx(3e-4)
    # died_at and pending carry the death; the tail is the trace's
    assert dead["pending"] is not None
    # every rank's tail is its last RING trace events up to the cutoff
    for r, rec in ranks.items():
        assert len(rec["tail"]) == RING, f"rank {r} shipped a short tail"
        assert {kind for _t, kind, _detail in rec["tail"]} <= {"am", "exec", "block", "resume"}
        for t, _kind, _detail in rec["tail"]:
            assert t <= bb["cutoff_s"]
    survivors = [r for r, rec in ranks.items() if not rec["dead"]]
    assert sorted(survivors) == ["0", "2", "3"]


def test_blackbox_tail_is_the_traces_last_events_per_rank():
    """The tail is cut from the job's TraceBuffer: a rank's last events at
    or before the cutoff, in its own order.  With no trace it is null."""
    trace, tel = TraceBuffer(), Telemetry()
    with pytest.raises(RankDeadError):
        upcxx.run_spmd(golden.ring_body, N_RANKS, ppn=2, seed=5, telemetry=tel,
                       trace=trace, faults=golden.TEL_CRASH_SPEC)
    cutoff = tel.blackbox["cutoff_s"]
    for r, rec in tel.blackbox["ranks"].items():
        mine = [[e.time, e.kind, e.detail] for e in trace if e.rank == int(r) and e.time <= cutoff]
        assert len(mine) > RING
        assert rec["tail"] == mine[-RING:], f"rank {r}"

    bare = Telemetry()
    with pytest.raises(RankDeadError):
        upcxx.run_spmd(golden.ring_body, N_RANKS, ppn=2, seed=5, telemetry=bare,
                       faults=golden.TEL_CRASH_SPEC)
    assert [rec["tail"] for rec in bare.blackbox["ranks"].values()] == [None] * N_RANKS
    # the rest of the bundle does not depend on the trace
    for r, rec in tel.blackbox["ranks"].items():
        assert dict(rec, tail=None) == bare.blackbox["ranks"][r]


def test_blackbox_written_to_path(tmp_path):
    path = tmp_path / "blackbox.json"
    bundle = _crash_bundle(path=str(path))
    on_disk = path.read_text()
    assert on_disk.rstrip("\n") == bundle
    parsed = json.loads(on_disk)
    assert parsed["verdict"]["rank"] == 1


# -------------------------------------------------------------------- health
def test_health_passes_below_knee_fails_above_knee():
    from repro.bench.kv_bench import measure_point

    below = measure_point("tiny", 1.0)
    above = measure_point("tiny", 8.0)
    v_below = health.evaluate({"kv": below})
    v_above = health.evaluate({"kv": above})
    assert all(v.status != "FAIL" for v in v_below), [v.line() for v in v_below]
    assert any(v.status == "FAIL" and v.name == "kv-utilization"
               for v in v_above), [v.line() for v in v_above]


def test_health_cli_exit_codes(tmp_path):
    from repro.bench.kv_bench import measure_point

    ok = tmp_path / "ok.json"
    bad = tmp_path / "bad.json"
    ok.write_text(json.dumps(measure_point("tiny", 1.0)))
    bad.write_text(json.dumps(measure_point("tiny", 8.0)))
    assert health.main(["--kv", str(ok)]) == 0
    assert health.main(["--kv", str(bad)]) == 1


def test_health_telemetry_rules():
    tel = Telemetry()
    _run(tel)
    verdicts = health.evaluate({"telemetry": json.loads(tel.dumps())})
    names = {v.name for v in verdicts}
    assert {"attentiveness-gap", "retransmit-rate",
            "credit-stall-fraction"} <= names
    assert all(v.status == "PASS" for v in verdicts), \
        [v.line() for v in verdicts]
    # an absurdly tight gap bound must flip the attentiveness rule
    strict = health.evaluate({"telemetry": json.loads(tel.dumps())},
                             max_gap_s=1e-12)
    gap = next(v for v in strict if v.name == "attentiveness-gap")
    assert gap.status == "WARN"


@pytest.mark.parametrize("doctor,line,code", [
    (lambda wins: wins[-1].pop("rel"),
     "[SKIP] retransmit-rate: ranks.0.windows.{last}.rel.retx not present", 0),
    (lambda wins: wins[0].update(max_gap_s="2ms"),
     "[FAIL] ranks.0.windows.0.max_gap_s: ranks.0.windows.0.max_gap_s = '2ms' "
     "is not a number", 1),
], ids=["window-without-rel", "string-max-gap"])
def test_health_partial_telemetry_is_a_verdict_not_a_crash(tmp_path, capsys, doctor, line, code):
    """A telemetry dump missing a field, or holding a string where a number
    belongs, gets a verdict naming the dotted path — never a traceback."""
    tel = Telemetry()
    _run(tel)
    doc = json.loads(tel.dumps())
    wins = doc["ranks"]["0"]["windows"]
    doctor(wins)
    path = tmp_path / "tel.json"
    path.write_text(json.dumps(doc))
    assert health.main(["--telemetry", str(path)]) == code
    assert line.format(last=len(wins) - 1) in capsys.readouterr().out


def test_health_failing_verdict_states_the_violated_relation():
    """A violated bound reads as violated: ``>`` past a ceiling, ``<``
    under a floor, never the relation the rule wanted."""
    tel = Telemetry()
    _run(tel)
    verdicts = health.evaluate({"telemetry": json.loads(tel.dumps())},
                               max_gap_s=1e-12, max_retx_rate=-1.0, max_stall_frac=-1.0)
    point = {"utilization": 0.5, "achieved_rps": 50, "offered_rps": 100,
             "p99_s": 2e-4, "p999_s": 3e-4, "availability": 0.98,
             "requests_served": 98, "requests_issued": 100}
    verdicts += health.evaluate({"kv": point}, p99_slo=1e-4, p999_slo=1e-4)
    crash = {"crash_rank": 3, "replication": 2, "availability": 1.0,
             "requests_served": 100, "requests_issued": 100, "writes_lost": 0,
             "factor_restored": True, "recovery_s": 1e-4}
    verdicts += health.evaluate({"kv": crash}, max_recovery_s=5e-5)
    holds = {"attentiveness-gap": " > ", "retransmit-rate": " > ",
             "credit-stall-fraction": " > ", "kv-utilization": " < ",
             "kv-p99": " > ", "kv-p999": " > ", "kv-availability": " < ",
             "kv-recovery": " > "}
    failed = {v.name: v.detail for v in verdicts if v.status in ("FAIL", "WARN")}
    assert sorted(failed) == sorted(holds), failed
    for name, rel in holds.items():
        assert rel in failed[name], failed[name]
        assert " <= " not in failed[name] and " >= " not in failed[name], failed[name]


def test_health_strict_fails_when_no_rule_applied(tmp_path, capsys):
    """An empty or renamed artifact must not read as healthy."""
    empty = tmp_path / "kv_crash.json"
    empty.write_text("{}")
    assert health.main(["--kv", str(empty)]) == 0  # degrade gracefully...
    assert health.main(["--kv", str(empty), "--strict"]) == 1  # ...but not in a gate
    assert "[FAIL] no-rule-applied" in capsys.readouterr().out


def test_health_strict_fails_on_a_sweep_without_points(tmp_path, capsys):
    """A sweep curve with no point is an empty artifact: no kv rule
    passes on it, so ``--strict`` fails."""
    doc = tmp_path / "KV_empty.json"
    doc.write_text(json.dumps({"curve": []}))
    assert health.main(["--kv", str(doc), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "[SKIP] kv-capacity: curve holds no point" in out
    assert "[SKIP] kv-coherence: curve holds no point" in out
    assert "[PASS]" not in out and "[FAIL] no-rule-applied" in out


def test_health_strict_fails_on_telemetry_without_windows(tmp_path, capsys):
    """A telemetry dump whose ranks hold no window is an empty artifact:
    no rule reads it, so ``--strict`` fails."""
    tel = Telemetry()
    _run(tel)
    doc = json.loads(tel.dumps())
    for rank in doc["ranks"].values():
        rank["windows"] = []
    path = tmp_path / "tel.json"
    path.write_text(json.dumps(doc))
    assert health.main(["--telemetry", str(path), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "[SKIP] telemetry: no rank holds a telemetry window" in out
    assert "[PASS]" not in out and "[FAIL] no-rule-applied" in out


def test_health_incomparable_value_is_a_fail_naming_the_path(tmp_path, capsys):
    doc = tmp_path / "point.json"
    doc.write_text(json.dumps({"utilization": "high"}))
    assert health.main(["--kv", str(doc), "--strict"]) == 1
    assert "[FAIL] utilization: utilization = 'high' is not a number" in capsys.readouterr().out


@pytest.mark.parametrize("doctored,rule", [
    ({"availability": 0.98}, "kv-availability"),
    ({"writes_lost": 1}, "kv-writes-lost"),
    ({"factor_restored": False}, "kv-factor-restored"),
], ids=["availability-0.98", "one-lost-write", "factor-not-restored"])
def test_health_kv_availability_conditions_can_fail(doctored, rule):
    """Each condition of the ``kv_crash_availability`` gate, driven to FAIL
    from an otherwise healthy rf=2 crash point."""
    healthy = {
        "crash_rank": 3, "replication": 2, "utilization": 0.5,
        "availability": 1.0, "requests_served": 100, "requests_issued": 100,
        "writes_lost": 0, "factor_restored": True, "rereplicated_keys": 9,
        "recovery_s": 1e-4, "failover_reads": 2,
    }
    assert all(v.status != "FAIL" for v in health.evaluate({"kv": healthy}))
    failed = [v.name for v in health.evaluate({"kv": dict(healthy, **doctored)})
              if v.status == "FAIL"]
    assert failed == [rule]


def test_health_applies_the_below_knee_rule_to_a_sweep_document():
    """``health --kv`` recognizes a ``kv_bench --sweep`` curve by its
    ``curve`` key: saturation at or above the knee is expected, below it
    is a FAIL."""
    def sweep(utils, knee_mult):
        return {
            "curve": [{"multiplier": m, "utilization": u} for m, u in utils],
            "knee": None if knee_mult is None else {"multiplier": knee_mult},
            "capacity_per_rank_rps": 1.0,
        }

    def capacity_verdict(doc):
        v, coherence, dwell, skew = health.evaluate({"kv": doc})  # no counters here
        assert (coherence.name, coherence.status) == ("kv-coherence", "SKIP")
        assert (dwell.name, dwell.status) == ("kv-write-dwell", "SKIP")
        assert (skew.name, skew.status) == ("kv-shard-skew", "SKIP")
        return v

    ok = sweep([(0.5, 1.0), (1.0, 0.97), (2.0, 0.6)], knee_mult=2.0)
    v = capacity_verdict(ok)
    assert (v.name, v.status) == ("kv-capacity", "PASS")
    sagging = sweep([(0.5, 0.8), (1.0, 0.97), (2.0, 0.6)], knee_mult=2.0)
    v = capacity_verdict(sagging)
    assert v.status == "FAIL" and "x[0.5]" in v.detail
    v = capacity_verdict(sweep([(0.5, "high")], None))
    assert v.status == "FAIL" and v.name == "curve.0.utilization"


def test_health_kv_coherence_rule_can_fail():
    """``kv-coherence``: owners may not send more invalidations than sharers
    were registered — on a point, or on any point of a sweep curve."""
    from repro.bench.kv_bench import measure_point

    def coherence(doc):
        (v,) = [v for v in health.evaluate({"kv": doc}) if v.name == "kv-coherence"]
        return v

    real = measure_point("tiny", 1)
    assert real["sharers_registered"] > 0
    assert coherence(real).status == "PASS"
    doctored = dict(real, invals_sent=real["sharers_registered"] + 1)
    assert coherence(doctored).status == "FAIL"
    assert coherence({"curve": [real, real]}).status == "PASS"
    v = coherence({"curve": [real, doctored]})
    assert v.status == "FAIL" and "curve.1.invals_sent" in v.detail
    assert coherence({"utilization": 0.97}).status == "SKIP"
    (garbled,) = [v for v in health.evaluate({"kv": dict(real, invals_sent="many")})
                  if v.name == "invals_sent"]
    assert garbled.status == "FAIL"


def test_health_prints_shard_skew_from_a_real_point():
    """``kv-shard-skew``: the owner-side load imbalance is in the artifact
    and on the health sheet — INFO, so it can never fail a gate; the worst
    point of a curve is the one named."""
    from repro.bench.kv_bench import measure_point

    def skew(doc):
        (v,) = [v for v in health.evaluate({"kv": doc}) if v.name == "kv-shard-skew"]
        return v

    real = measure_point("tiny", 1)
    # Zipf(1.1) over 8 shards: one owner applies and serves most
    assert 1.5 < real["shard_load_skew"] < 8.0
    v = skew(real)
    assert v.status == "INFO" and f"shard_load_skew = {real['shard_load_skew']}" in v.detail
    worse = dict(real, shard_load_skew=7.5)
    v = skew({"curve": [real, worse, real]})
    assert v.status == "INFO" and "curve.1.shard_load_skew = 7.5" in v.detail
    assert skew({"utilization": 0.97}).status == "SKIP"
    assert skew({"curve": [real, {"utilization": 0.97}]}).status == "SKIP"
    (garbled,) = [v for v in health.evaluate({"kv": dict(real, shard_load_skew="hot")})
                  if v.name == "shard_load_skew"]
    assert garbled.status == "FAIL"


def test_health_write_dwell_rule_passes_because_the_front_end_parks(tmp_path, monkeypatch):
    """``kv-write-dwell``: below saturation a write should cost an ack round
    trip, not the aggregator's timer.  PASS on the real base-rate point;
    the same point with ``KvService.park`` stubbed out — the service as it
    was before partial batches shipped at park — reads WARN."""
    from repro.apps.kvservice import KvService
    from repro.bench.kv_bench import measure_point

    def dwell(doc):
        (v,) = [v for v in health.evaluate({"kv": doc}) if v.name == "kv-write-dwell"]
        return v

    real = measure_point("tiny", 1)
    assert real["write_p50_s"] < 0.25 * real["max_dwell_s"]
    v = dwell(real)
    assert v.status == "PASS" and "0.11x max_dwell 40.0us" in v.detail, v.line()
    # thresholds: PASS under 0.5x, WARN from 1.0x, a number in between
    assert dwell(dict(real, write_p50_s=19.9e-6)).status == "PASS"
    assert dwell(dict(real, write_p50_s=20e-6)).status == "INFO"
    assert dwell(dict(real, write_p50_s=40e-6)).status == "WARN"
    # only points with idle time are judged: a saturated point, or one at
    # or past the knee of a curve, is buying batching with its dwell
    slow = dict(real, write_p50_s=90e-6)
    assert dwell(dict(slow, utilization=0.5)).status == "SKIP"
    knee = {"multiplier": 2.0}
    assert dwell({"curve": [dict(real, multiplier=1.0), dict(slow, multiplier=2.0)],
                  "knee": knee}).status == "PASS"
    v = dwell({"curve": [dict(slow, multiplier=1.0), dict(real, multiplier=2.0)], "knee": knee})
    assert v.status == "WARN" and "curve.0.write_p50_s" in v.detail
    without = {k: v for k, v in real.items() if k != "max_dwell_s"}
    assert dwell(without).status == "SKIP"
    assert dwell(dict(real, max_dwell_s=None)).status == "SKIP"  # aggregate=False
    (garbled,) = [v for v in health.evaluate({"kv": dict(real, write_p50_s="slow")})
                  if v.name == "write_p50_s"]
    assert garbled.status == "FAIL"

    monkeypatch.setattr(KvService, "park", lambda self: None)
    timer = measure_point("tiny", 1)
    v = dwell(timer)
    assert v.status == "WARN" and "waiting out the timer" in v.detail, v.line()
    assert timer["write_p50_s"] > real["max_dwell_s"] and timer["updates_per_batch"] > 1.1
    doc = tmp_path / "point.json"
    doc.write_text(json.dumps(timer))
    assert health.main(["--kv", str(doc)]) == 0  # a warning...
    assert health.main(["--kv", str(doc), "--strict"]) == 1  # ...gated


def test_health_p99_slo_fails_above_the_knee_and_passes_at_the_base_rate(tmp_path):
    """``kv-p99`` at the SLO CI's kv-smoke job sets (``--p99-slo 25e-6``):
    the real x1 point meets it (15.8 us; 62.2 us while writes sat out the
    dwell timer), the real x4 point (257 us) does not."""
    from repro.bench.kv_bench import measure_point

    for mult, status, code in ((1, "PASS", 0), (4, "FAIL", 1)):
        point = measure_point("tiny", mult)
        (v,) = [v for v in health.evaluate({"kv": point}, p99_slo=25e-6, min_utilization=0.0)
                if v.name == "kv-p99"]
        assert v.status == status, v.line()
        doc = tmp_path / f"x{mult}.json"
        doc.write_text(json.dumps(point))
        assert health.main(["--kv", str(doc), "--p99-slo", "25e-6",
                            "--min-utilization", "0", "--strict"]) == code
    assert [v for v in health.evaluate({"kv": {"utilization": 1.0}}, p99_slo=25e-6)
            if v.name == "kv-p99"][0].status == "SKIP"


def test_health_recovery_ceiling_fails_and_passes_on_a_real_crash_point(tmp_path):
    """``kv-recovery``: INFO until ``--max-recovery`` is set; the real rf=2
    single-crash point restores its factor in about 2.7 ms."""
    from repro.bench.kv_bench import measure_crash_point

    point = measure_crash_point("tiny", replication=2)
    assert 1e-3 < point["recovery_s"] < 5e-3

    def recovery(**kw):
        (v,) = [v for v in health.evaluate({"kv": point}, **kw) if v.name == "kv-recovery"]
        return v.status

    assert recovery() == "INFO"
    assert recovery(max_recovery_s=1e-3) == "FAIL"
    assert recovery(max_recovery_s=5e-3) == "PASS"
    doc = tmp_path / "kv_crash.json"
    doc.write_text(json.dumps(point))
    assert health.main(["--kv", str(doc), "--strict", "--max-recovery", "1e-3"]) == 1
    assert health.main(["--kv", str(doc), "--strict", "--max-recovery", "5e-3"]) == 0


def test_retransmit_rate_warns_on_a_lossy_run(tmp_path):
    """``retransmit-rate`` seen off PASS on a real run: 30 % frame loss
    makes the reliable layer resend more frames than the program injects;
    the fault-free run of the same program resends none."""
    def retx(path, faults):
        tel = Telemetry()
        upcxx.run_spmd(golden.ring_body, N_RANKS, ppn=2, seed=5, telemetry=tel, faults=faults)
        path.write_text(tel.dumps())
        (v,) = [v for v in health.evaluate({"telemetry": json.loads(tel.dumps())},
                                           max_gap_s=1.0)
                if v.name == "retransmit-rate"]
        return v

    calm, lossy = tmp_path / "calm.json", tmp_path / "lossy.json"
    assert retx(calm, None).status == "PASS"
    v = retx(lossy, "seed=3,drop=0.3")
    assert v.status == "WARN" and "retransmits" in v.detail, v.line()
    argv = ["--max-gap", "1.0", "--strict", "--telemetry"]  # isolate the rule
    assert health.main(argv + [str(calm)]) == 0
    assert health.main(argv + [str(lossy)]) == 1
    assert health.main(argv[:2] + ["--telemetry", str(lossy)]) == 0  # a warning, gated by --strict


def test_credit_stall_fraction_warns_on_a_stop_and_wait_window(tmp_path):
    """``credit-stall-fraction`` seen off PASS on a real run: one credit per
    peer and one-entry batches under saturating writes make every update
    wait out its predecessor's ack; the default configuration never
    stalls at its base rate."""
    from repro.apps.kvservice import default_config
    from repro.bench.kv_bench import run_kv

    def stall_verdict(path, **overrides):
        tel = Telemetry()
        run_kv(dict(default_config("tiny"), **overrides), telemetry=tel)
        path.write_text(tel.dumps())
        (v,) = [v for v in health.evaluate({"telemetry": json.loads(tel.dumps())})
                if v.name == "credit-stall-fraction"]
        return v

    calm = tmp_path / "calm.json"
    assert stall_verdict(calm).status == "PASS"
    assert health.main(["--telemetry", str(calm), "--strict"]) == 0
    starved = tmp_path / "starved.json"
    v = stall_verdict(starved, ranks=4, credits=1, batch_size=1,
                      rate=1e9, read_fraction=0.1)
    assert v.status == "WARN", v.line()
    assert health.main(["--telemetry", str(starved)]) == 0  # a warning...
    assert health.main(["--telemetry", str(starved), "--strict"]) == 1  # ...gated
