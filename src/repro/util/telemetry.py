"""Windowed telemetry rollups + blackbox post-mortem bundles.

This is the continuous-visibility layer the span/metrics machinery is not:
spans capture *everything* (full per-op lifecycle, heavyweight), metrics
capture *distributions* (dwell histograms), while telemetry captures
**cheap periodic counter snapshots** — the GASNet-EX performance-counter
philosophy.  It is designed for three properties:

1. **Deterministic.**  Snapshots are taken in rank context at fixed
   *simulated-time* window edges (the first library call at-or-after each
   edge closes the window), and every counter read is a pure observation
   of rank-local state — no clock-bearing events are posted and nothing
   perturbs the schedule, so the rollup stream is a pure function of
   (program, seed).

2. **Costs per window, not per op; exactly zero when off.**  A
   :class:`RankTelemetry` is one rank's sink (:mod:`repro.util.sink`)
   watching only library entry, death and finish; with no telemetry there
   is no sink, and the progress engine pays one test of its (empty) sink
   tuple per boundary.  When on, an entry is three float compares, and a
   window close reads counters the runtime and its endpoint keep anyway.
   Injections, AM polls and completions call no telemetry code.

3. **Crash-safe.**  Under a fault plan with rank crashes the windows
   *freeze* at the first crash time: nothing stamped after the cutoff is
   admitted, so the ``blackbox.json`` post-mortem bundle reflects the job
   as of the moment of death, bit-identical for the same seed.  Each
   rank's ``tail`` of last actions is cut from the job's
   :class:`~repro.util.trace.TraceBuffer` when ``run_spmd`` was given one
   (``trace=``), and is ``null`` otherwise.

Usage::

    tel = Telemetry(window_s=20e-6)
    try:
        upcxx.run_spmd(body, 8, telemetry=tel, trace=TraceBuffer(),
                       faults="seed=3,crash=1@3e-4")
    except RankDeadError:
        bundle = tel.blackbox          # dict; also written to
                                       # tel.blackbox_path when set
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional

from repro.util.sink import Sink

#: schema tag embedded in every blackbox bundle
BLACKBOX_SCHEMA = "repro-blackbox/1"

#: default rollup cadence (simulated seconds); ~the paper's RPC-scale
DEFAULT_WINDOW_S = 20e-6

#: blackbox tail depth (trace events kept per rank)
RING = 64

#: cap on per-queue detail captured in a pending-op snapshot
_PENDING_DETAIL = 16


def window_index(t: float, window_s: float) -> int:
    """The window holding ``t``: ``k`` with ``k * window_s <= t < (k + 1) *
    window_s``, the edges computed as the sink computes them.  ``int(t /
    window_s)`` alone is one low at ~5 % of exact edges (``27 * w / w`` is
    26.999... for ``w = 20e-6``)."""
    k = int(t / window_s)
    if (k + 1) * window_s <= t:
        return k + 1
    if k * window_s > t:
        return k - 1
    return k


class RankTelemetry(Sink):
    """One rank's telemetry: rollup windows and its death record.

    All mutation happens in rank context in program order, so the state is
    a pure function of (program, seed).  Times arrive as
    explicit arguments — this class never reads a clock.
    """

    def __init__(self, rank: int, window_s: float = DEFAULT_WINDOW_S,
                 freeze_at: Optional[float] = None):
        self.rank = rank
        self.window_s = window_s
        #: closed rollup windows (list of dicts, see _close)
        self.windows: List[dict] = []
        #: freeze cutoff (first crash time of the fault plan, +inf when
        #: there is none) — nothing stamped after it is admitted, so
        #: crash-run state reflects the job exactly as of the moment of death
        self._admit_until = float("inf") if freeze_at is None else freeze_at
        #: library entries admitted (since t=0)
        self.ticks = 0
        # crash post-mortem state
        self.died_at: Optional[float] = None
        self.pending: Optional[dict] = None
        #: replication-layer state table (``Runtime.kv_replica``, copied at
        #: finish: factor, shard size, deaths seen, restored flag, recovery
        #: time)
        self.replica: Optional[dict] = None
        # window bookkeeping
        self._next_edge = window_s
        self._last_t: Optional[float] = None
        self._win_gap = 0.0

    # ------------------------------------------------------ sink boundaries
    def enter(self, rt, t: float) -> None:
        """One library entry at simulated time ``t`` (rank context).

        Updates the attentiveness gap and closes rollup windows whose edge
        has passed.
        """
        if t > self._admit_until:
            return
        self.ticks += 1
        last = self._last_t
        if last is not None:
            gap = t - last
            if gap > self._win_gap:
                self._win_gap = gap
        self._last_t = t
        if t >= self._next_edge:
            w = window_index(t, self.window_s)
            self._close(t, w, False, rt)
            self._next_edge = (w + 1) * self.window_s

    def death(self, rt, t_die: float) -> None:
        """This rank observed its own fail-stop crash: capture its
        in-flight state as of the previous suspension (queue depths plus a
        bounded sample of operation descriptions)."""
        if self.died_at is not None:
            return
        if t_die > self._admit_until:
            # a second, later crash, past the moment the bundle describes
            return
        self.died_at = t_die
        self.pending = {
            "defQ": len(rt.defQ),
            "actQ": len(rt.actQ),
            "actQ_ops": [str(v) for v in list(rt.actQ.values())[:_PENDING_DETAIL]],
            "compQ": len(rt.compQ),
            "compQ_kinds": [it.kind for it in list(rt.compQ)[:_PENDING_DETAIL]],
            "staged": len(rt._gasnet_done),
            "replies": len(rt.reply_table),
        }
        self._close(t_die, window_index(t_die, self.window_s), True, rt)

    def finish(self, rt, now: float) -> None:
        """Close the final (partial) window at normal completion and copy
        the KV service's replication-layer state table."""
        self._close(now, window_index(now, self.window_s), True, rt)
        self.replica = rt.kv_replica

    # ------------------------------------------------------------- recording
    def _close(self, t: float, w: int, final: bool, rt) -> None:
        """Snapshot the runtime's queue depths, AM polls and agg/kv
        counters, and its endpoint's NIC/reliability ledger, into a closed
        window.  Every counter is one the runtime keeps with or without
        telemetry."""
        ep = rt._ep
        win = {
            "w": w,
            "t": t,
            "final": final,
            "queues": [len(rt.defQ), len(rt.actQ), len(rt.compQ), len(rt._gasnet_done)],
            "ams": rt._inbox.n_polled,
            "ticks": self.ticks,
            "max_gap_s": self._win_gap,
            "nic": {
                "puts": ep.n_puts,
                "gets": ep.n_gets,
                "ams": ep.n_ams,
                "amos": ep.n_amos,
                "bytes_out": ep.bytes_out,
                "backlog_s": max(0.0, ep.nic_free_at - t),
            },
            "rel": {
                "retx": ep.n_retx,
                "dropped": ep.n_dropped,
                "dup": ep.n_dup,
                "acks": ep.n_acks,
            },
            "agg": {
                "batches": rt.agg_batches,
                "updates": rt.agg_updates,
                "credit_stall_s": rt.agg_credit_stall_s,
                "cache_hits": rt.agg_cache_hits,
                "read_batches": rt.agg_read_batches,
            },
            "kv": {
                "shed": rt.kv_shed,
                "failover_reads": rt.kv_failover_reads,
                "rereplicated": rt.kv_rereplicated,
            },
        }
        self.windows.append(win)
        self._win_gap = 0.0

    # --------------------------------------------------------------- export
    def as_dict(self) -> dict:
        """JSON-safe dump of this rank's full telemetry state."""
        return {
            "rank": self.rank,
            "window_s": self.window_s,
            "died_at": self.died_at,
            "pending": self.pending,
            "replica": self.replica,
            "windows": list(self.windows),
            "ticks": self.ticks,
        }

    def last_window(self, cutoff: Optional[float] = None) -> Optional[dict]:
        """The most recent closed window at-or-before ``cutoff``."""
        for win in reversed(self.windows):
            if cutoff is None or win["t"] <= cutoff:
                return win
        return None


class Telemetry:
    """Job-level telemetry sink: one :class:`RankTelemetry` per rank.

    Pass an instance to ``run_spmd(telemetry=...)``; :meth:`rank` hands
    each rank its sink.

    ``blackbox_path``: when a run ends in ``RankDeadError``/``RankFailure``
    the post-mortem bundle is stored as :attr:`blackbox` and — when a path
    is configured — written there as canonical JSON (byte-identical for
    the same seed).
    """

    def __init__(self, window_s: float = DEFAULT_WINDOW_S,
                 blackbox_path: Optional[str] = None):
        self.window_s = window_s
        self.blackbox_path = blackbox_path
        #: first crash time of the active fault plan (set by ``run_spmd``);
        #: freezes the windows so a crash bundle shows the moment of death
        self.freeze_at: Optional[float] = None
        #: last post-mortem bundle built (dict), if any
        self.blackbox: Optional[dict] = None
        self._ranks: Dict[int, RankTelemetry] = {}

    # ------------------------------------------------------------- plumbing
    def rank(self, r: int) -> RankTelemetry:
        """The per-rank sink for rank ``r`` (created on first use)."""
        rt = self._ranks.get(r)
        if rt is None:
            rt = self._ranks[r] = RankTelemetry(r, self.window_s, freeze_at=self.freeze_at)
        return rt

    @property
    def ranks(self) -> Dict[int, RankTelemetry]:
        return dict(sorted(self._ranks.items()))

    # --------------------------------------------------------------- export
    def as_dict(self) -> dict:
        return {
            "window_s": self.window_s,
            "ranks": {str(r): rt.as_dict() for r, rt in sorted(self._ranks.items())},
        }

    def dumps(self) -> str:
        """Canonical JSON dump (byte-identical for identical state)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    # ------------------------------------------------------------- blackbox
    def build_blackbox(self, err, faults=None, trace=None) -> dict:
        """Assemble the post-mortem bundle for a failed (or survived) run.

        For *fatal* crash plans the bundle is truncated at the first crash
        time, the moment of death it describes.  Non-crash failures
        (``RankFailure``) carry no cutoff.

        Each rank's ``tail`` is its last :data:`RING` events of the job's
        ``trace`` (a :class:`~repro.util.trace.TraceBuffer`: AM polls,
        completion executions, scheduler blocks and resumes) at or before
        the cutoff.  Without a trace every ``tail`` is ``None``.

        ``err=None`` records a *survived* crash run (survivable plan +
        replication): no cutoff is applied — execution past the crash is
        itself deterministic — and the verdict states that the service
        outlived its failures.  Per-rank entries then carry the
        replication-layer ``replica`` state table.
        """
        crashes = faults.crashes if faults is not None else {}
        cutoff: Optional[float] = None
        if crashes and not (faults.survivable and err is None):
            cutoff = min(crashes.values())
        tails = None
        if trace is not None:
            tails = {r: deque(maxlen=RING) for r in self._ranks}
            for ev in trace:
                if ev.rank in tails and (cutoff is None or ev.time <= cutoff):
                    tails[ev.rank].append([ev.time, ev.kind, ev.detail])
        ranks = {}
        for r, rt in sorted(self._ranks.items()):
            ranks[str(r)] = {
                "dead": rt.died_at is not None,
                "died_at": rt.died_at,
                "tail": None if tails is None else list(tails[r]),
                "last_window": rt.last_window(cutoff),
                "pending": rt.pending,
                "replica": rt.replica,
            }
        if err is None:
            verdict = {
                "type": "Survived",
                "rank": None,
                "message": (
                    f"run completed through {len(crashes)} crash(es); "
                    "service stayed available"
                ),
            }
        else:
            verdict = {
                "type": type(err).__name__,
                "rank": getattr(err, "rank", None),
                "message": str(err),
            }
        verdict["detect_timeout_s"] = faults.detect_timeout if faults is not None else None
        return {
            "schema": BLACKBOX_SCHEMA,
            "verdict": verdict,
            "cutoff_s": cutoff,
            "window_s": self.window_s,
            "ranks": ranks,
        }

    def emit_blackbox(self, err, faults=None, trace=None) -> dict:
        """Build, stash, and (if configured) write the blackbox bundle."""
        bundle = self.build_blackbox(err, faults, trace)
        self.blackbox = bundle
        if self.blackbox_path:
            with open(self.blackbox_path, "w") as f:
                f.write(dumps_blackbox(bundle))
        return bundle


def dumps_blackbox(bundle: dict) -> str:
    """Canonical blackbox JSON (stable key order, no whitespace)."""
    return json.dumps(bundle, sort_keys=True, separators=(",", ":"))
