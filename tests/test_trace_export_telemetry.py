"""Perfetto counter-track export of telemetry rollups.

Pins the observability satellite contract for
:func:`repro.util.trace_export.chrome_trace_telemetry_events`: five
counter tracks per rank with per-window *deltas* of the cumulative
rollup counters, lane metadata, metadata dedup when merged
into a full chrome trace, and byte-stable deterministic output.
"""

import json

import repro.upcxx as upcxx
from repro.util.telemetry import Telemetry
from repro.util.trace import TraceBuffer
from repro.util.trace_export import (
    chrome_trace,
    chrome_trace_telemetry_events,
    dumps_chrome_trace,
)

N_RANKS = 4

#: the five counter tracks every instrumented rank must expose
TRACKS = ("tel.ops", "tel.queues", "tel.nic", "tel.agg", "tel.attentiveness")


def _body():
    me, n = upcxx.rank_me(), upcxx.rank_n()
    acc = 0
    for i in range(40):
        acc += upcxx.rpc((me + 1) % n, lambda x: x + 1, i).wait()
    upcxx.barrier()
    return acc


def _run_telemetry():
    tel = Telemetry()
    upcxx.run_spmd(_body, N_RANKS, ppn=2, seed=9, telemetry=tel)
    return tel


def test_counter_tracks_per_rank():
    tel = _run_telemetry()
    events = chrome_trace_telemetry_events(tel)
    counters = [e for e in events if e["ph"] == "C"]
    assert counters, "no counter samples exported"
    for e in counters:
        assert e["cat"] == "telemetry"
    by_rank_track = {}
    for e in counters:
        track = e["name"].split(" ", 2)[2]  # "rank N tel.xxx" -> "tel.xxx"
        by_rank_track.setdefault((e["tid"], track), []).append(e)
    for rank in range(N_RANKS):
        for track in TRACKS:
            assert (rank, track) in by_rank_track, f"rank {rank} missing {track}"
    # one sample per closed window per track
    for rank, rt in tel.ranks.items():
        for track in TRACKS:
            assert len(by_rank_track[(rank, track)]) == len(rt.windows)


def test_counter_args_are_window_deltas():
    tel = _run_telemetry()
    events = chrome_trace_telemetry_events(tel)
    for rank, rt in tel.ranks.items():
        ops = [e for e in events
               if e["ph"] == "C" and e["name"] == f"rank {rank} tel.ops"]
        ops.sort(key=lambda e: e["ts"])
        # deltas re-sum to the cumulative counters of the final window
        last = rt.windows[-1]
        assert sum(e["args"]["executed"] for e in ops) == last["executed"]
        assert sum(e["args"]["am_polls"] for e in ops) == last["ams"]
        assert sum(e["args"]["injected"] for e in ops) == sum(last["ops"].values())
        # every delta is non-negative (cumulative counters are monotone)
        for e in ops:
            assert e["args"]["executed"] >= 0
            assert e["args"]["injected"] >= 0
        # timestamps are the window-close times in microseconds
        assert [e["ts"] for e in ops] == [w["t"] * 1e6 for w in rt.windows]


def test_one_process_with_a_lane_per_rank():
    events = chrome_trace_telemetry_events(_run_telemetry())
    assert {e["pid"] for e in events} == {0}
    meta = [e for e in events if e["ph"] == "M"]
    assert [e["args"]["name"] for e in meta if e["name"] == "process_name"] == ["simulation"]
    thread_names = {e["tid"]: e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert thread_names == {r: f"rank {r}" for r in range(N_RANKS)}


def test_merged_trace_dedups_metadata_and_sorts():
    trace = TraceBuffer(enabled=True)
    tel = Telemetry()
    upcxx.run_spmd(_body, N_RANKS, ppn=2, seed=9, trace=trace, telemetry=tel)
    doc = chrome_trace(trace, telemetry=tel)
    events = doc["traceEvents"]
    # metadata appears exactly once per (name, pid, tid) despite both the
    # trace and the telemetry export emitting their own copies
    meta_keys = [(e["name"], e["pid"], e["tid"]) for e in events
                 if e["ph"] == "M"]
    assert len(meta_keys) == len(set(meta_keys))
    # counter samples made it into the merged stream
    assert any(e["ph"] == "C" and e["cat"] == "telemetry" for e in events)
    # canonical order: (ts, pid, tid, ph, name) nondecreasing
    keys = [(e.get("ts", -1.0), e["pid"], e["tid"], e["ph"], e["name"])
            for e in events]
    assert keys == sorted(keys)


def test_export_is_deterministic_and_json_clean():
    texts = []
    for _ in range(2):
        trace = TraceBuffer(enabled=True)
        tel = Telemetry()
        upcxx.run_spmd(_body, N_RANKS, ppn=2, seed=9, trace=trace, telemetry=tel)
        texts.append(dumps_chrome_trace(trace, telemetry=tel))
    assert texts[0] == texts[1]
    json.loads(texts[0])  # valid JSON document
