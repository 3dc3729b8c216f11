"""Causal span tracer + critical-path report unit and integration tests.

Covers the span buffer's canonical order/fingerprint contract, the exact
tiling property of the critical-path walk (the ISSUE's "components sum to
within 1% of the round trip" acceptance bound — met with equality here),
the ``repro.tools.report`` CLI, and the Perfetto export lanes.
"""

import json
import re

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
        assert re.fullmatch(r"[0-9a-f]{32}", a.fingerprint())

    def test_every_emitted_phase_is_categorized(self):
        assert set(PHASES.values()) <= set(CATEGORIES)


# ------------------------------------------------ rows, expanded on read
def _rpc_trips(n):
    """Rank 0 runs ``n`` blocking RPC round trips to rank 1."""
    def body():
        if upcxx.rank_me() == 0:
            for i in range(n):
                upcxx.rpc(1, lambda x: x, i).wait()
        upcxx.barrier()

    spans = SpanBuffer()
    upcxx.run_spmd(body, 2, spans=spans)
    return spans


def _phases(spans, sid):
    return [r[4] for r in spans if r[3] == sid]


class TestSpanRows:
    def test_an_rpc_round_trip_appends_six_rows(self):
        """A traced message appends three rows (injection with its frame,
        inbox poll, retirement), so a round trip appends at most six; read
        back they are the fourteen records of its request and reply."""
        one, four = _rpc_trips(1), _rpc_trips(4)
        assert (len(four._rows) - len(one._rows)) / 3 <= 6
        assert (len(four) - len(one)) / 3 == 14
        req = (0, 1)  # rank 0's first sid: the barrier comes after
        rep = next(r[3] for r in one if r[7] == req)
        assert _phases(one, req) == ["inject_sw", "nic_wait", "nic_occ", "wire", "inbox",
                                     "compq", "exec_sw"]
        assert _phases(one, rep) == _phases(one, req)

    def test_an_operation_whose_rank_dies_keeps_its_phases(self):
        """Rank 1 polls rank 0's request, then dies before its user
        progress runs it; rank 0's rget reply leaves rank 1 and rank 0
        dies before retiring it.  Each keeps every phase recorded until
        the death: no compq or exec_sw, the rest all there."""
        def body():
            me = upcxx.rank_me()
            g = upcxx.new_array(np.float64, 4)
            ptr = upcxx.broadcast(g, root=1).wait()
            if me == 0:
                upcxx.rpc_ff(1, lambda: None)
                upcxx.rget(ptr)
                upcxx.compute(100e-6)
            else:
                upcxx.compute(20e-6)
                upcxx.rpc_ff(0, lambda: None)  # internal progress polls the request
                upcxx.compute(100e-6)
            upcxx.progress()  # both have died by now

        spans = SpanBuffer()
        upcxx.run_spmd(body, 2, spans=spans, faults="seed=1,crash=0@60e-6+1@50e-6,survive=1")
        # rank 0's last request (the broadcast sends some before it)
        request = max(r[3] for r in spans if r[5] == "rpc" and r[3][0] == 0)
        rget = next(r[3] for r in spans if r[5] == "rget")
        assert _phases(spans, request) == ["inject_sw", "nic_wait", "nic_occ", "wire", "inbox"]
        assert _phases(spans, rget) == ["inject_sw", "nic_wait", "nic_occ", "wire",
                                        "remote_nic_wait", "remote_occ", "wire_back"]
        assert {r[2] for r in spans if r[3] == rget and r[4] == "wire_back"} == {1}

    def test_frames_carry_their_kind_and_only_awaited_acks(self):
        """Each traced kind's frames carry the frame kind, and only a put's
        and an atomic's ack is a phase; a row of an unlisted kind does not
        read back as some default layout."""
        def body():
            g = upcxx.new_array(np.int64, 4)
            ptr = upcxx.broadcast(g, root=1).wait()
            if upcxx.rank_me() == 0:
                ad = upcxx.AtomicDomain({"fetch_add"}, np.int64)
                upcxx.rput(np.int64(1), ptr).wait()
                upcxx.rget(ptr).wait()
                ad.fetch_add(ptr, 1).wait()
                upcxx.rpc(1, lambda: None).wait()
            upcxx.barrier()

        spans = SpanBuffer()
        upcxx.run_spmd(body, 2, spans=spans)
        by_op = {}
        sids = {r[3]: r[5] for r in spans if r[4] == "inject_sw" and r[3][0] == 0}
        for r in spans:
            if r[3] in sids and r[4] in ("nic_occ", "ack_wire"):
                by_op.setdefault(sids[r[3]], set()).add((r[4], r[5]))
        assert by_op["rput"] == {("nic_occ", "put"), ("ack_wire", "put")}
        assert by_op["amo"] == {("nic_occ", "amo"), ("ack_wire", "amo")}
        assert by_op["rget"] == {("nic_occ", "get")}
        assert by_op["rpc"] == {("nic_occ", "am")}
        row = next(r for r in spans._rows if r[5] == "rput")
        spans._rows.append(row[:5] + ("new_op",) + row[6:])
        with pytest.raises(KeyError):
            list(spans)


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
