"""Causal span tracer + critical-path report unit and integration tests.

Covers the span buffer's canonical merge/fingerprint contract, the exact
tiling property of the critical-path walk (the ISSUE's "components sum to
within 1% of the round trip" acceptance bound — met with equality here),
the ``repro.tools.report`` CLI, and the per-shard Perfetto export lanes.
"""

import json

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.tools.report import (
    CATEGORIES,
    analyze_workload,
    attribution,
    build_report,
    critical_path,
    main as report_main,
)
from repro.util.spans import PHASES, SpanBuffer
from repro.util.trace import TraceBuffer
from repro.util.trace_export import chrome_trace_events, chrome_trace_span_events


# ----------------------------------------------------------- SpanBuffer unit
class TestSpanBuffer:
    def test_record_and_canonical_order(self):
        sp = SpanBuffer()
        sp.record(2.0, 3.0, 1, (1, 1), "wire", "put", 8)
        sp.record(0.0, 1.0, 0, (0, 1), "inject_sw", "put", 8)
        recs = sp.canonical_records()
        assert [r[0] for r in recs] == [0.0, 2.0]
        assert len(sp) == 2

    def test_merge_equals_single_stream(self):
        """Parent-side shard merge == one buffer fed the same records."""
        single = SpanBuffer()
        a, b = SpanBuffer(), SpanBuffer()
        for i in range(10):
            rec = (float(i), float(i) + 0.5, i % 4, (i % 4, i), "wire", "put", 64, None)
            single.record(*rec)
            (a if i % 4 < 2 else b).record(*rec)
        merged = SpanBuffer()
        merged.extend_canonical([list(b._records), list(a._records)])
        assert merged.canonical_records() == single.canonical_records()
        assert merged.fingerprint() == single.fingerprint()

    def test_fingerprint_sensitivity(self):
        a, b = SpanBuffer(), SpanBuffer()
        a.record(0.0, 1.0, 0, (0, 1), "wire", "put", 8)
        b.record(0.0, 1.0, 0, (0, 1), "wire", "put", 9)  # nbytes differs
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == len(a.fingerprint()) * "0" or True  # hex str
        assert isinstance(a.fingerprint(), str)

    def test_as_dicts_json_ready(self):
        sp = SpanBuffer()
        sp.record(0.0, 1.0, 0, (0, 1), "inject_sw", "rpc", 8, parent=(1, 2))
        d = sp.as_dicts()[0]
        json.dumps(d)  # must not raise
        assert d["sid"] == [0, 1] and d["parent"] == [1, 2]

    def test_every_emitted_phase_is_categorized(self):
        assert set(PHASES.values()) <= set(CATEGORIES)


# ----------------------------------------------------- critical-path walk
class TestCriticalPath:
    def test_tiles_window_exactly_with_gaps(self):
        # two spans with a gap between them and slack at both ends
        recs = [
            (1.0, 2.0, 0, (0, 1), "wire", "put", 8, None),
            (3.0, 4.0, 0, (0, 2), "inject_sw", "put", 8, None),
        ]
        segs = critical_path(recs, 0.0, 5.0)
        assert segs[0][0] == 0.0 and segs[-1][1] == 5.0
        for prev, nxt in zip(segs, segs[1:]):
            assert prev[1] == nxt[0]  # exact tiling, no overlap, no holes
        attr = attribution(segs)
        assert attr["app"] == 3.0  # [0,1] + [2,3] + [4,5]
        assert attr["wire"] == 1.0 and attr["software"] == 1.0
        assert sum(attr[c] for c in CATEGORIES) == attr["total"] == 5.0

    def test_zero_length_spans_cannot_stall(self):
        recs = [
            (1.0, 1.0, 0, (0, 1), "nic_wait", "put", 8, None),  # zero length
            (0.0, 1.0, 0, (0, 2), "nic_occ", "put", 8, None),
        ]
        segs = critical_path(recs, 0.0, 1.0)
        assert segs[-1][1] == 1.0 and segs[0][0] == 0.0

    def test_prefers_latest_ending_span(self):
        recs = [
            (0.0, 2.0, 0, (0, 1), "wire", "put", 8, None),
            (0.0, 4.0, 0, (0, 2), "compq", "put", 8, None),
        ]
        segs = critical_path(recs, 0.0, 4.0)
        # the whole window is covered by the compq span (ends latest)
        assert [s[3] for s in segs] == ["compq"]

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            critical_path([], 1.0, 0.0)


# ------------------------------------------------- fig3a report integration
@pytest.fixture(scope="module")
def fig3a_report():
    return analyze_workload("fig3a", "coroutines")


class TestFig3aReport:
    def test_components_sum_to_round_trip(self, fig3a_report):
        """Acceptance criterion: attribution sums within 1% of the total
        simulated round-trip window (exact by construction here)."""
        attr = fig3a_report["attribution_s"]
        t0, t1 = fig3a_report["window_s"]
        total = t1 - t0
        covered = sum(attr[c] for c in CATEGORIES)
        assert attr["total"] == pytest.approx(total, rel=1e-12)
        assert covered == pytest.approx(total, rel=0.01)  # the 1% bound...
        assert covered == pytest.approx(total, rel=1e-9)  # ...met exactly

    def test_wire_dominates_small_put_latency(self, fig3a_report):
        """For 512 B blocking puts the paper's story is wire-bound: two
        latency hops per round trip dwarf software overhead."""
        attr = fig3a_report["attribution_s"]
        assert attr["wire"] > attr["software"] > 0.0
        assert fig3a_report["n_spans"] > 0

    def test_segments_tile_the_window(self, fig3a_report):
        segs = fig3a_report["critical_path"]
        t0, t1 = fig3a_report["window_s"]
        assert segs[0]["t0"] == t0 and segs[-1]["t1"] == t1
        for prev, nxt in zip(segs, segs[1:]):
            assert prev["t1"] == nxt["t0"]


class TestReportCli:
    def test_json_output_and_exit_code(self, tmp_path):
        out = tmp_path / "SPAN_report.json"
        rc = report_main(
            ["--workload", "fig3a", "--backends", "coroutines", "sharded",
             "--shards", "2", "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-span-report/1"
        assert doc["fingerprints_identical"] is True
        assert set(doc["fingerprints"]) == {"coroutines", "sharded"}
        rep = doc["reports"][0]
        assert rep["n_spans"] > 0
        assert "_spans" not in rep  # internal handles stripped from JSON

    def test_perfetto_output(self, tmp_path, capsys):
        out = tmp_path / "spans.trace.json"
        rc = report_main(
            ["--workload", "fig3a", "--backends", "coroutines",
             "--format", "perfetto", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "put:wire" in names and "rput:inject_sw" in names

    def test_build_report_flags_divergence(self, monkeypatch):
        import repro.tools.report as report_mod

        real = report_mod.analyze_workload
        calls = []

        def tampered(name, backend, shards=None, faults=None):
            rep = real(name, backend, shards, faults)
            calls.append(backend)
            if backend == "sharded":
                rep["fingerprint"] = "deadbeef"  # simulate a divergence
            return rep

        monkeypatch.setattr(report_mod, "analyze_workload", tampered)
        doc, identical, _ = report_mod.build_report(
            "fig3a", ["coroutines", "sharded"], 2
        )
        assert calls == ["coroutines", "sharded"]
        assert identical is False
        assert doc["fingerprints_identical"] is False


# ------------------------------------------------------- Perfetto export
class TestShardedExportLanes:
    def test_distinct_pid_per_shard_with_metadata(self):
        trace = TraceBuffer()
        results = upcxx.run_spmd(
            lambda: upcxx.barrier() or upcxx.rank_me(),
            4, platform="haswell", ppn=2, trace=trace,
        )
        assert results == [0, 1, 2, 3]
        shard_of = [0, 0, 1, 1]
        events = chrome_trace_events(trace, shard_of=shard_of)
        pids = {e["pid"] for e in events}
        assert pids == {0, 1}
        proc_names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert proc_names == {0: "shard 0", 1: "shard 1"}
        thread_names = {
            (e["pid"], e["tid"]): e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert thread_names[(1, 3)] == "rank 3"
        # rank events landed on their shard's pid
        for e in events:
            if e["ph"] != "M":
                assert e["pid"] == shard_of[e["tid"]]

    def test_unsharded_default_is_single_process(self):
        trace = TraceBuffer()
        upcxx.run_spmd(lambda: upcxx.barrier(), 2, platform="haswell", ppn=1, trace=trace)
        events = chrome_trace_events(trace)
        assert {e["pid"] for e in events} == {0}
        assert any(
            e["ph"] == "M" and e["name"] == "process_name" and e["args"]["name"] == "simulation"
            for e in events
        )

    def test_span_events_carry_sid_and_parent(self):
        sp = SpanBuffer()
        sp.record(1e-6, 2e-6, 1, (0, 1), "wire", "rpc", 64)
        sp.record(3e-6, 4e-6, 0, (1, 1), "wire", "rpc_reply", 16, parent=(0, 1))
        events = [e for e in chrome_trace_span_events(sp, [0, 1]) if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["rpc:wire", "rpc_reply:wire"]
        assert events[0]["pid"] == 1 and events[0]["tid"] == 1
        assert events[0]["args"]["sid"] == "r0#1"
        assert events[1]["args"]["parent"] == "r0#1"
        assert events[0]["dur"] == pytest.approx(1.0)  # us
