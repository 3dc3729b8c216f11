"""Windowed telemetry rollups + per-rank flight recorder + blackbox bundles.

This is the continuous-visibility layer the span/metrics machinery is not:
spans capture *everything* (full per-op lifecycle, heavyweight), metrics
capture *distributions* (dwell histograms), while telemetry captures
**cheap periodic counter snapshots** plus a **bounded ring of recent
events** — the GASNet-EX performance-counter philosophy.  It is designed
for three properties:

1. **Deterministic.**  Snapshots are taken in rank context at fixed
   *simulated-time* window edges (the first library call at-or-after each
   edge closes the window), and every counter read is a pure observation
   of rank-local state — no clock-bearing events are posted and nothing
   perturbs the schedule, so the rollup stream is a pure function of
   (program, seed).

2. **Near-zero cost, exactly zero when off.**  The runtime keeps a single
   per-rank reference (``None`` when telemetry is absent); every hook is
   one ``is not None`` check.  When on, a tick is three float compares
   and the flight recorder is a bounded ``deque.append``.

3. **Crash-safe.**  Under a fault plan with rank crashes the recorder
   *freezes* at the first crash time: entries stamped after the cutoff
   are not admitted, so the bundle reflects the job as of the moment of
   death, and the ring's contents — and therefore the ``blackbox.json``
   post-mortem bundle — are bit-identical for the same seed.

Usage::

    tel = Telemetry(window_s=20e-6)
    try:
        upcxx.run_spmd(body, 8, telemetry=tel, faults="seed=3,crash=1@3e-4")
    except RankDeadError:
        bundle = tel.blackbox          # dict; also written to
                                       # tel.blackbox_path when set
"""

from __future__ import annotations

import json
from collections import deque
from typing import Dict, List, Optional

#: schema tag embedded in every blackbox bundle
BLACKBOX_SCHEMA = "repro-blackbox/1"

#: default rollup cadence (simulated seconds); ~the paper's RPC-scale
DEFAULT_WINDOW_S = 20e-6

#: default flight-recorder depth (events kept per rank)
DEFAULT_RING = 64

#: cap on per-queue detail captured in a pending-op snapshot
_PENDING_DETAIL = 16


class RankTelemetry:
    """One rank's telemetry: cumulative counters, windows, flight ring.

    All mutation happens in rank context in program order, so the state is
    a pure function of (program, seed).  Times arrive as
    explicit arguments — this class never reads a clock.
    """

    def __init__(self, rank: int, window_s: float = DEFAULT_WINDOW_S,
                 ring: int = DEFAULT_RING, freeze_at: Optional[float] = None):
        self.rank = rank
        self.window_s = window_s
        #: flight recorder: (t, kind, detail) tuples, oldest evicted first
        self.ring: deque = deque(maxlen=ring)
        #: closed rollup windows (list of dicts, see _close)
        self.windows: List[dict] = []
        #: freeze cutoff (first crash time of the fault plan, if any) —
        #: nothing stamped after it is admitted, so crash-run state
        #: reflects the job exactly as of the moment of death
        self.freeze_at = freeze_at
        # cumulative counters (since t=0)
        self.ops: Dict[str, int] = {}
        self.bytes: Dict[str, int] = {}
        self.executed = 0
        self.ams = 0
        self.ticks = 0
        # crash post-mortem state
        self.died_at: Optional[float] = None
        self.pending: Optional[dict] = None
        #: replication-layer state table (set by the KV service at drain:
        #: factor, shard size, deaths seen, restored flag, recovery time)
        self.replica: Optional[dict] = None
        # window bookkeeping
        self._next_edge = window_s
        self._last_t: Optional[float] = None
        self._win_gap = 0.0

    # ------------------------------------------------------------- recording
    def tick(self, t: float, ndef: int, nact: int, ncomp: int, nstaged: int,
             ep) -> None:
        """One library entry at simulated time ``t`` (rank context).

        Updates the attentiveness gap and closes rollup windows whose edge
        has passed.  ``ep`` is this rank's conduit endpoint (NIC counters).
        """
        freeze = self.freeze_at
        if freeze is not None and t > freeze:
            return
        self.ticks += 1
        last = self._last_t
        if last is not None:
            gap = t - last
            if gap > self._win_gap:
                self._win_gap = gap
        self._last_t = t
        if t >= self._next_edge:
            w = int(t / self.window_s)
            self._close(t, w, False, (ndef, nact, ncomp, nstaged), ep)
            self._next_edge = (w + 1) * self.window_s

    def op(self, kind: str, nbytes: int) -> None:
        """An operation left the deferred state (rank context)."""
        ops = self.ops
        ops[kind] = ops.get(kind, 0) + 1
        if nbytes:
            b = self.bytes
            b[kind] = b.get(kind, 0) + nbytes
        t = self._last_t
        if t is not None:
            self.note(t, "inject", kind)

    def am(self, t: float, tag: str) -> None:
        """An active message was polled from the inbox (rank context)."""
        self.ams += 1
        self.note(t, "am", tag)

    def exec_note(self, kind: str) -> None:
        """A compQ item was executed by user progress (rank context)."""
        self.executed += 1
        t = self._last_t
        if t is not None:
            self.note(t, "exec", kind)

    def note(self, t: float, kind: str, detail: str) -> None:
        """Append a flight-recorder entry (bounded; freeze-gated)."""
        freeze = self.freeze_at
        if freeze is not None and t > freeze:
            return
        self.ring.append((t, kind, detail))

    def record_death(self, t_die: float, pending: dict, queues, ep) -> None:
        """This rank observed its own fail-stop crash (rank context)."""
        if self.died_at is not None:
            return
        freeze = self.freeze_at
        if freeze is not None and t_die > freeze:
            # a second, later crash, past the moment the bundle describes
            return
        self.died_at = t_die
        self.pending = pending
        self.note(t_die, "crash", f"rank {self.rank} fail-stop")
        self._close(t_die, int(t_die / self.window_s), True, queues, ep)

    def finalize(self, t: float, queues, ep) -> None:
        """Close the final (partial) window at normal completion."""
        self._close(t, int(t / self.window_s), True, queues, ep)

    def _close(self, t: float, w: int, final: bool, queues, ep) -> None:
        """Snapshot cumulative counters into a closed rollup window."""
        win = {
            "w": w,
            "t": t,
            "final": final,
            "queues": [queues[0], queues[1], queues[2], queues[3]],
            "ops": dict(self.ops),
            "bytes": dict(self.bytes),
            "executed": self.executed,
            "ams": self.ams,
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
                "batches": ep.agg_batches,
                "updates": ep.agg_updates,
                "credit_stall_s": ep.agg_credit_stall_s,
                "cache_hits": ep.agg_cache_hits,
            },
            "kv": {
                "shed": ep.kv_shed,
                "failover_reads": ep.kv_failover_reads,
                "rereplicated": ep.kv_rereplicated,
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
            "ring": [[t, kind, detail] for (t, kind, detail) in self.ring],
            "windows": list(self.windows),
            "totals": {
                "ops": dict(self.ops),
                "bytes": dict(self.bytes),
                "executed": self.executed,
                "ams": self.ams,
                "ticks": self.ticks,
            },
        }

    def tail(self, cutoff: Optional[float] = None) -> List[list]:
        """Flight-recorder tail, truncated at ``cutoff`` when given."""
        if cutoff is None:
            return [[t, kind, detail] for (t, kind, detail) in self.ring]
        return [[t, kind, detail] for (t, kind, detail) in self.ring
                if t <= cutoff]

    def last_window(self, cutoff: Optional[float] = None) -> Optional[dict]:
        """The most recent closed window at-or-before ``cutoff``."""
        for win in reversed(self.windows):
            if cutoff is None or win["t"] <= cutoff:
                return win
        return None


class Telemetry:
    """Job-level telemetry sink: one :class:`RankTelemetry` per rank.

    Mirrors the gating discipline of :class:`repro.util.Metrics`: pass an
    instance to ``run_spmd(telemetry=...)``; ``enabled=False`` (or passing
    ``None``) makes every runtime hook a single ``is None`` check.

    ``blackbox_path``: when a run ends in ``RankDeadError``/``RankFailure``
    the post-mortem bundle is stored as :attr:`blackbox` and — when a path
    is configured — written there as canonical JSON (byte-identical for
    the same seed).
    """

    def __init__(self, enabled: bool = True, window_s: float = DEFAULT_WINDOW_S,
                 ring: int = DEFAULT_RING, blackbox_path: Optional[str] = None):
        self.enabled = enabled
        self.window_s = window_s
        self.ring = ring
        self.blackbox_path = blackbox_path
        #: first crash time of the active fault plan (set by the runtime);
        #: freezes rings/windows so a crash bundle shows the moment of death
        self.freeze_at: Optional[float] = None
        #: last post-mortem bundle built (dict), if any
        self.blackbox: Optional[dict] = None
        self._ranks: Dict[int, RankTelemetry] = {}

    # ------------------------------------------------------------- plumbing
    def rank(self, r: int) -> RankTelemetry:
        """The per-rank sink for rank ``r`` (created on first use)."""
        rt = self._ranks.get(r)
        if rt is None:
            rt = self._ranks[r] = RankTelemetry(
                r, self.window_s, self.ring, freeze_at=self.freeze_at)
        return rt

    @property
    def ranks(self) -> Dict[int, RankTelemetry]:
        return dict(sorted(self._ranks.items()))

    def set_replica_state(self, rank: int, state: dict) -> None:
        """Record a rank's replication-layer state table (blackbox feed)."""
        self.rank(rank).replica = state

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
    def build_blackbox(self, err, faults=None) -> dict:
        """Assemble the post-mortem bundle for a failed (or survived) run.

        For *fatal* crash plans the bundle is truncated at the first crash
        time, the moment of death it describes.  Non-crash failures
        (``RankFailure``) carry no cutoff.

        ``err=None`` records a *survived* crash run (survivable plan +
        replication): no cutoff is applied — execution past the crash is
        itself deterministic — and the verdict states that the service
        outlived its failures.  Per-rank entries then carry the
        replication-layer ``replica`` state table.
        """
        crashes = getattr(faults, "crashes", None) if faults is not None else None
        survivable = bool(getattr(faults, "survivable", False))
        cutoff: Optional[float] = None
        if crashes and not (survivable and err is None):
            cutoff = min(crashes.values())
        ranks = {}
        for r, rt in sorted(self._ranks.items()):
            ranks[str(r)] = {
                "dead": rt.died_at is not None,
                "died_at": rt.died_at,
                "tail": rt.tail(cutoff),
                "last_window": rt.last_window(cutoff),
                "pending": rt.pending,
                "replica": rt.replica,
            }
        if err is None:
            verdict = {
                "type": "Survived",
                "rank": None,
                "message": (
                    f"run completed through {len(crashes or {})} crash(es); "
                    "service stayed available"
                ),
            }
        else:
            verdict = {
                "type": type(err).__name__,
                "rank": getattr(err, "rank", None),
                "message": str(err),
            }
        verdict["detect_timeout_s"] = (
            getattr(faults, "detect_timeout", None) if faults is not None else None
        )
        return {
            "schema": BLACKBOX_SCHEMA,
            "verdict": verdict,
            "cutoff_s": cutoff,
            "window_s": self.window_s,
            "ranks": ranks,
        }

    def emit_blackbox(self, err, faults=None) -> dict:
        """Build, stash, and (if configured) write the blackbox bundle."""
        bundle = self.build_blackbox(err, faults)
        self.blackbox = bundle
        if self.blackbox_path:
            with open(self.blackbox_path, "w") as f:
                f.write(dumps_blackbox(bundle))
        return bundle


def dumps_blackbox(bundle: dict) -> str:
    """Canonical blackbox JSON (stable key order, no whitespace)."""
    return json.dumps(bundle, sort_keys=True, separators=(",", ":"))
