"""Telemetry rollups, the flight recorder, and the health-gate CLI.

Covers the observability tentpole's three acceptance properties:

- windowed rollups equal the golden digest (``tests/golden.py`` — the
  same bar simulated results are held to);
- a rank crash produces a **blackbox** post-mortem bundle equal to the
  golden digest, frozen at the crash cutoff;
- ``repro.tools.health`` flags an above-knee (saturated) KV run and
  passes a below-knee one — and every rule it applies can be seen to
  FAIL (or WARN, from a real run: ``credit-stall-fraction``), including
  "no rule applied" under ``--strict``.
"""

import json

import pytest

import repro.upcxx as upcxx
from repro.tools import health
from repro.util.telemetry import BLACKBOX_SCHEMA, Telemetry
from tests import golden

N_RANKS = 4


def _run(tel):
    return upcxx.run_spmd(golden.ring_body, N_RANKS, ppn=2, seed=5, telemetry=tel)


# ------------------------------------------------------------------- rollups
def test_rollups_reproduce_golden():
    assert len(golden.reproduces("telemetry_rollups").results[0]) == N_RANKS


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
            assert b["executed"] >= a["executed"]
            assert b["ams"] >= a["ams"]
            assert sum(b["ops"].values()) >= sum(a["ops"].values())
        last = wins[-1]
        assert last["final"] is True
        assert last["executed"] > 0
        assert set(last["nic"]) == {"puts", "gets", "ams", "amos",
                                    "bytes_out", "backlog_s"}
        assert set(last["rel"]) == {"retx", "dropped", "dup", "acks"}
        assert set(last["agg"]) == {"batches", "updates", "credit_stall_s",
                                    "cache_hits"}
        assert last["max_gap_s"] >= 0.0
        # the flight recorder rode along
        assert len(rt.ring) > 0


def test_rollups_respect_window_cadence():
    tel = Telemetry(window_s=5e-6)
    _run(tel)
    wide = Telemetry(window_s=1e-3)
    _run(wide)
    n_narrow = sum(len(rt.windows) for rt in tel.ranks.values())
    n_wide = sum(len(rt.windows) for rt in wide.ranks.values())
    assert n_narrow > n_wide  # finer cadence -> more windows


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
    # every ring entry respects the freeze cutoff
    for rec in ranks.values():
        for t, _kind, _detail in rec["tail"]:
            assert t <= bb["cutoff_s"] + 1e-12
    # the dead rank's last ring entry is its own death
    assert dead["tail"][-1][1] == "crash"
    survivors = [r for r, rec in ranks.items() if not rec["dead"]]
    assert sorted(survivors) == ["0", "2", "3"]
    for r in survivors:
        assert ranks[r]["tail"], f"survivor {r} shipped no tail"


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


def test_health_declarative_rules():
    doc = {"kv": {"utilization": 0.97, "p99_s": 4.2e-5}}
    rule_ok = {"name": "util-floor", "doc": "kv", "path": "utilization",
               "op": ">=", "value": 0.9}
    rule_bad = {"name": "p99-ceiling", "doc": "kv", "path": "p99_s",
                "op": "<=", "value": 1e-5}
    ok, bad = health.evaluate(doc, rules=[rule_ok, rule_bad])[-2:]
    assert ok.status == "PASS"
    assert bad.status == "FAIL"


def test_health_strict_fails_when_no_rule_applied(tmp_path, capsys):
    """An empty or renamed artifact must not read as healthy."""
    empty = tmp_path / "kv_crash.json"
    empty.write_text("{}")
    assert health.main(["--kv", str(empty)]) == 0  # degrade gracefully...
    assert health.main(["--kv", str(empty), "--strict"]) == 1  # ...but not in a gate
    assert "[FAIL] no-rule-applied" in capsys.readouterr().out


def test_health_incomparable_value_is_a_fail_naming_the_path(tmp_path, capsys):
    doc = tmp_path / "point.json"
    doc.write_text(json.dumps({"utilization": "high"}))
    assert health.main(["--kv", str(doc), "--strict"]) == 1
    assert "[FAIL] utilization: utilization = 'high' is not a number" in capsys.readouterr().out
    rule = {"name": "r", "doc": "kv", "path": "utilization", "op": ">=", "value": 0.9}
    assert health.evaluate({"kv": {}}, rules=[rule])[-1].status == "SKIP"
    verdict = health.evaluate({"kv": {"utilization": "high"}}, rules=[rule])[-1]
    assert verdict.status == "FAIL" and "utilization = 'high' cannot be compared" in verdict.detail


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
        v, coherence, skew = health.evaluate({"kv": doc})  # no counters here
        assert (coherence.name, coherence.status) == ("kv-coherence", "SKIP")
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
