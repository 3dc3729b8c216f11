"""Chrome/Perfetto trace export for simulated runs.

Converts a :class:`~repro.util.trace.TraceBuffer` (and optionally a
:class:`~repro.util.metrics.Metrics`) into the Chrome Trace Event JSON
format, loadable in ``ui.perfetto.dev`` or ``chrome://tracing`` with one
lane (tid) per rank:

- scheduler ``block``/``resume`` pairs become complete ("X") duration
  events named by the block reason, so idle/waiting intervals are visible
  as spans;
- every other trace event becomes a thread-scoped instant ("i") event
  (AM polls, compQ executions, user annotations);
- metrics queue-depth samples become counter ("C") tracks, one per rank,
  plotting defQ/actQ/compQ/staged depths over time.

All lanes sit in one Perfetto *process* (pid 0, "simulation");
``process_name``/``thread_name`` metadata events label the tracks.
:func:`chrome_trace_span_events` renders a
:class:`~repro.util.spans.SpanBuffer` the same way, one "X" slice per
lifecycle phase.

Timestamps are microseconds of *simulated* time.  Export is a pure
function of the inputs: two same-seed runs produce byte-identical JSON
(pinned by ``tests/test_examples_determinism.py``).
"""

from __future__ import annotations

import json
from typing import IO, List, Optional, Sequence, Union

from repro.util.metrics import Metrics, QUEUE_NAMES
from repro.util.trace import TraceBuffer

#: simulated seconds -> trace microseconds
_US = 1e6


def _meta_events(ranks: Sequence[int]) -> List[dict]:
    """process_name / thread_name metadata for every lane in use."""
    events = [{"ph": "M", "name": "process_name", "pid": 0, "tid": 0,
               "args": {"name": "simulation"}}] if ranks else []
    return events + [{"ph": "M", "name": "thread_name", "pid": 0, "tid": r,
                      "args": {"name": f"rank {r}"}} for r in ranks]


def chrome_trace_events(
    trace: TraceBuffer,
    metrics: Optional[Metrics] = None,
) -> List[dict]:
    """Build the ``traceEvents`` list (one lane per rank)."""
    events: List[dict] = []
    ranks = sorted({ev.rank for ev in trace})
    if metrics is not None:
        ranks = sorted(set(ranks) | {rm.rank for rm in metrics.ranks})
    events.extend(_meta_events(ranks))

    open_block: dict = {}
    for ev in trace:
        if ev.kind == "block":
            # an unmatched earlier block (abort path) degrades to an instant
            prev = open_block.pop(ev.rank, None)
            if prev is not None:
                events.append(_instant(prev))
            open_block[ev.rank] = ev
        elif ev.kind == "resume" and ev.rank in open_block:
            b = open_block.pop(ev.rank)
            events.append(
                {
                    "ph": "X",
                    "name": b.detail or "blocked",
                    "cat": "sched",
                    "pid": 0,
                    "tid": ev.rank,
                    "ts": b.time * _US,
                    "dur": (ev.time - b.time) * _US,
                }
            )
        else:
            events.append(_instant(ev))
    for ev in open_block.values():
        events.append(_instant(ev))

    if metrics is not None:
        for rm in metrics.ranks:
            name = f"rank {rm.rank} queues"
            for sample in rm.queue_samples:
                events.append(
                    {
                        "ph": "C",
                        "name": name,
                        "cat": "queues",
                        "pid": 0,
                        "tid": rm.rank,
                        "ts": sample[0] * _US,
                        "args": dict(zip(QUEUE_NAMES, sample[1:])),
                    }
                )

    events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"], e["tid"], e["ph"], e["name"]))
    return events


def _instant(ev) -> dict:
    out = {
        "ph": "i",
        "s": "t",
        "name": ev.kind,
        "cat": "sim",
        "pid": 0,
        "tid": ev.rank,
        "ts": ev.time * _US,
    }
    if ev.detail:
        out["args"] = {"detail": ev.detail}
    return out


def chrome_trace_span_events(spans) -> List[dict]:
    """Render a :class:`~repro.util.spans.SpanBuffer` as "X" slice events.

    One slice per lifecycle phase, named ``kind:phase``, on the lane of
    the rank whose resource the phase describes; the correlation id and
    causal parent ride in ``args`` so Perfetto's query view can join the
    chains.
    """
    records = spans.canonical_records()
    ranks = sorted({r[2] for r in records})
    events = _meta_events(ranks)
    for t0, t1, rank, sid, phase, kind, nbytes, parent in records:
        args = {"sid": f"r{sid[0]}#{sid[1]}", "nbytes": nbytes}
        if parent is not None:
            args["parent"] = f"r{parent[0]}#{parent[1]}"
        events.append(
            {
                "ph": "X",
                "name": f"{kind}:{phase}",
                "cat": "span",
                "pid": 0,
                "tid": rank,
                "ts": t0 * _US,
                "dur": (t1 - t0) * _US,
                "args": args,
            }
        )
    events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"], e["tid"], e["ph"], e["name"]))
    return events


def chrome_trace_telemetry_events(telemetry) -> List[dict]:
    """Render telemetry rollup windows as Perfetto counter ("C") tracks.

    One sample per closed window on the owning rank's lane; cumulative
    snapshots are differenced into per-window activity so the tracks plot
    *rates*, while queue depths, NIC backlog and the attentiveness gap are
    instantaneous.  Five tracks per rank: ``tel.ops`` (NIC injections of
    every op class, AM polls), ``tel.queues`` (defQ/actQ/compQ/staged),
    ``tel.nic`` (bytes + backlog + retransmits), ``tel.agg`` (batches/updates/stall/
    cache hits) and ``tel.attentiveness`` (max progress gap).  Pure
    function of the telemetry state.
    """
    events: List[dict] = []
    ranks_map = telemetry.ranks
    events.extend(_meta_events(sorted(ranks_map)))
    for rank, rt in sorted(ranks_map.items()):
        prev_ops = prev_ams = 0
        prev_bytes = prev_retx = 0
        prev_batches = prev_updates = prev_hits = 0
        prev_stall = 0.0
        for win in rt.windows:
            ts = win["t"] * _US
            nic = win["nic"]
            n_ops = nic["puts"] + nic["gets"] + nic["ams"] + nic["amos"]
            n_bytes = nic["bytes_out"]
            n_retx = win["rel"]["retx"]
            agg = win["agg"]
            base = {"pid": 0, "tid": rank, "ph": "C", "ts": ts}
            events.append(dict(base, name=f"rank {rank} tel.ops", cat="telemetry", args={
                "injected": n_ops - prev_ops,
                "am_polls": win["ams"] - prev_ams,
            }))
            events.append(dict(base, name=f"rank {rank} tel.queues", cat="telemetry", args={
                "defQ": win["queues"][0],
                "actQ": win["queues"][1],
                "compQ": win["queues"][2],
                "staged": win["queues"][3],
            }))
            events.append(dict(base, name=f"rank {rank} tel.nic", cat="telemetry", args={
                "bytes_out": n_bytes - prev_bytes,
                "backlog_us": nic["backlog_s"] * _US,
                "retransmits": n_retx - prev_retx,
            }))
            events.append(dict(base, name=f"rank {rank} tel.agg", cat="telemetry", args={
                "batches": agg["batches"] - prev_batches,
                "updates": agg["updates"] - prev_updates,
                "credit_stall_us": (agg["credit_stall_s"] - prev_stall) * _US,
                "cache_hits": agg["cache_hits"] - prev_hits,
            }))
            events.append(dict(base, name=f"rank {rank} tel.attentiveness",
                               cat="telemetry", args={
                "max_gap_us": win["max_gap_s"] * _US,
            }))
            prev_ops, prev_ams = n_ops, win["ams"]
            prev_bytes, prev_retx = n_bytes, n_retx
            prev_batches, prev_updates = agg["batches"], agg["updates"]
            prev_hits, prev_stall = agg["cache_hits"], agg["credit_stall_s"]
    events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"], e["tid"], e["ph"], e["name"]))
    return events


def chrome_trace(
    trace: TraceBuffer,
    metrics: Optional[Metrics] = None,
    telemetry=None,
) -> dict:
    """The full Chrome Trace Event JSON document."""
    events = chrome_trace_events(trace, metrics)
    if telemetry is not None:
        # counter tracks interleave with the span/instant lanes; re-sort so
        # the merged stream keeps the canonical deterministic order
        # (lane metadata both sides emit is kept once)
        lanes = {(e["name"], e["tid"]) for e in events if e["ph"] == "M"}
        events += [e for e in chrome_trace_telemetry_events(telemetry)
                   if e["ph"] != "M" or (e["name"], e["tid"]) not in lanes]
        events.sort(key=lambda e: (e.get("ts", -1.0), e["pid"], e["tid"], e["ph"], e["name"]))
    return {
        "displayTimeUnit": "ms",
        "traceEvents": events,
    }


def dumps_chrome_trace(
    trace: TraceBuffer,
    metrics: Optional[Metrics] = None,
    telemetry=None,
) -> str:
    """Deterministic JSON text of the trace (byte-stable across runs)."""
    return json.dumps(
        chrome_trace(trace, metrics, telemetry),
        sort_keys=True, separators=(",", ":")
    )


def export_chrome_trace(
    dest: Union[str, IO[str]],
    trace: TraceBuffer,
    metrics: Optional[Metrics] = None,
    telemetry=None,
) -> Union[str, IO[str]]:
    """Write the trace JSON to ``dest`` (a path or open text file)."""
    text = dumps_chrome_trace(trace, metrics, telemetry)
    if isinstance(dest, str):
        with open(dest, "w") as fh:
            fh.write(text)
    else:
        dest.write(text)
    return dest


def dumps_metrics(metrics: Metrics) -> str:
    """Deterministic JSON text of a metrics export."""
    return json.dumps(metrics.as_dict(), sort_keys=True, separators=(",", ":"))
