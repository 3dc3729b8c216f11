"""Telemetry rollups, the flight recorder, and the health-gate CLI.

Covers the observability tentpole's three acceptance properties:

- windowed rollups are **bit-identical** on the coroutine and sharded
  backends and equal to the golden digest (``tests/golden.py`` — the
  same bar simulated results are held to);
- a rank crash produces a **blackbox** post-mortem bundle that is
  byte-identical on both backends and equal to the golden digest —
  including when the dead rank lives in a forked shard worker — frozen
  at the crash cutoff;
- ``repro.tools.health`` flags an above-knee (saturated) KV run and
  passes a below-knee one.
"""

import json

import pytest

import repro.upcxx as upcxx
from repro.tools import health
from repro.util.telemetry import BLACKBOX_SCHEMA, Telemetry
from tests import golden

N_RANKS = 4


def _run(backend, tel=None):
    return upcxx.run_spmd(golden.ring_body, N_RANKS, ppn=2, seed=5,
                          backend=backend, telemetry=tel)


# ------------------------------------------------------------------- rollups
def test_rollups_reproduce_golden_on_both_backends():
    ref, _ = golden.reproduces("telemetry_rollups")
    assert len(ref.results[0]) == N_RANKS


def test_window_structure_and_monotonicity():
    tel = Telemetry()
    _run("coroutines", tel=tel)
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
    _run("coroutines", tel=tel)
    wide = Telemetry(window_s=1e-3)
    _run("coroutines", tel=wide)
    n_narrow = sum(len(rt.windows) for rt in tel.ranks.values())
    n_wide = sum(len(rt.windows) for rt in wide.ranks.values())
    assert n_narrow > n_wide  # finer cadence -> more windows


# ------------------------------------------------------------------ blackbox
def _crash_bundle(backend, path=None) -> str:
    return golden.telemetry_blackbox(backend, path=path).results[2]


def test_blackbox_reproduces_golden_on_both_backends():
    golden.reproduces("telemetry_blackbox")


def test_blackbox_contents():
    bb = json.loads(_crash_bundle("coroutines"))
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
    bundle = _crash_bundle("coroutines", path=str(path))
    on_disk = path.read_text()
    assert on_disk.rstrip("\n") == bundle
    parsed = json.loads(on_disk)
    assert parsed["verdict"]["rank"] == 1


def test_blackbox_through_shard_fail_frames(tmp_path):
    """The dead rank lives in a forked worker: its frozen telemetry must
    cross the FAIL frame and land in the parent's bundle."""
    path = tmp_path / "bb.json"
    with golden.shards(2):
        bb = json.loads(_crash_bundle("sharded", path=str(path)))
    assert bb["ranks"]["1"]["dead"] is True
    assert bb["ranks"]["1"]["tail"]
    assert path.exists()


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
    _run("coroutines", tel=tel)
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


def test_health_advisory_gates_never_fail_strict(tmp_path, capsys):
    bench = {
        "gates": [
            {"name": "sharded_vs_coroutines", "target_speedup": 2.0,
             "measured_speedup": 0.8, "passed": False, "advisory": True},
            {"name": "kv_aggregation_vs_rpc", "target_speedup": 4.0,
             "measured_speedup": 6.5, "passed": True},
        ],
    }
    p = tmp_path / "bench.json"
    p.write_text(json.dumps(bench))
    assert health.main(["--bench", str(p), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "[INFO]" in out


# ------------------------------------------------------------- perf digest
def test_perf_harness_telemetry_digest():
    from repro.bench.perf_harness import telemetry_digest

    with golden.shards(2):
        d = telemetry_digest(("coroutines", "sharded"))
    assert d["identical"] is True
    assert d["n_ranks"] == 8
    assert d["totals"]["ops"] > 0
    assert d["totals"]["windows"] > 0
    assert len(d["fingerprint"]) == 16
