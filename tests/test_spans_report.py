"""Causal span tracer + critical-path report unit and integration tests.

Covers the span buffer's canonical order/fingerprint contract, the exact
tiling property of the critical-path walk (the ISSUE's "components sum to
within 1% of the round trip" acceptance bound — met with equality here),
the ``repro.tools.report`` CLI, and the Perfetto export lanes.
"""

import json

import numpy as np
import pytest

import repro.upcxx as upcxx
from repro.tools.report import (
    CATEGORIES,
    analyze_workload,
    attribution,
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

    def test_fingerprint_sensitivity(self):
        a, b = SpanBuffer(), SpanBuffer()
        a.record(0.0, 1.0, 0, (0, 1), "wire", "put", 8)
        b.record(0.0, 1.0, 0, (0, 1), "wire", "put", 9)  # nbytes differs
        assert a.fingerprint() != b.fingerprint()
        assert a.fingerprint() == len(a.fingerprint()) * "0" or True  # hex str
        assert isinstance(a.fingerprint(), str)

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
    return analyze_workload("fig3a")


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
            ["--workload", "fig3a", "--format", "json", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-span-report/2"
        assert doc["n_spans"] > 0 and len(doc["fingerprint"]) == 32
        assert "_spans" not in doc  # internal handles stripped from JSON

    def test_fault_report_is_the_golden_ci_cell(self, tmp_path):
        """``--faults`` reaches the run, and the fingerprint the CLI reports
        is the one ``tests/golden`` pins for the same plan."""
        from tests import golden

        out = tmp_path / "SPAN_report.json"
        spec = golden.PROGRAMS["ci_drop_heavy"].args[0]
        assert report_main(["--faults", spec, "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["faults"] == spec and doc["diagnostics"]["frames_dropped"] > 0
        assert doc["fingerprint"] == golden.load()["ci_drop_heavy"]["spans"]

    def test_perfetto_output(self, tmp_path, capsys):
        out = tmp_path / "spans.trace.json"
        rc = report_main(
            ["--workload", "fig3a", "--format", "perfetto", "--out", str(out)]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "put:wire" in names and "rput:inject_sw" in names


# ------------------------------------------------------- Perfetto export
class TestExportLanes:
    def test_one_process_with_a_lane_per_rank(self):
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
        events = [e for e in chrome_trace_span_events(sp) if e["ph"] == "X"]
        assert [e["name"] for e in events] == ["rpc:wire", "rpc_reply:wire"]
        assert events[0]["pid"] == 0 and events[0]["tid"] == 1
        assert events[0]["args"]["sid"] == "r0#1"
        assert events[1]["args"]["parent"] == "r0#1"
        assert events[0]["dur"] == pytest.approx(1.0)  # us
