"""Run profiling: aggregate per-rank operation statistics into a report.

The simulator makes every communication event observable; this module
collects the counters the runtime/conduit already maintain into a compact
per-run report — the "what did my program actually do on the network"
tooling a library of this kind ships with.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.util.units import fmt_bytes, fmt_time

#: environment switch: REPRO_PROFILE=1 cProfiles one rank's SPMD body
PROFILE_ENV = "REPRO_PROFILE"
#: which rank to profile (default 0); every rank runs the same body, so
#: one rank's profile is representative of the shared-layer hot path
PROFILE_RANK_ENV = "REPRO_PROFILE_RANK"
#: optional .pstats dump path (default: print top entries to stderr)
PROFILE_OUT_ENV = "REPRO_PROFILE_OUT"


def profiling_enabled() -> bool:
    """Whether ``REPRO_PROFILE`` asks for a per-rank cProfile dump (rank
    bodies are then routed through :func:`maybe_profiled`)."""
    return os.environ.get(PROFILE_ENV, "") not in ("", "0")


def maybe_profiled(fn: Callable[[], object], rank: int) -> Callable[[], object]:
    """Wrap a rank body in cProfile when REPRO_PROFILE selects this rank.

    Profiling must happen *inside* the rank's fiber/thread — cProfile hooks
    the calling thread only, so profiling the main thread (which merely
    parks in ``Scheduler.run``) would observe nothing.  The profile is
    dumped when the body returns: to ``$REPRO_PROFILE_OUT`` as a pstats
    file if set, else as a top-40 cumulative-time table on stderr.
    """
    if not profiling_enabled() or rank != int(os.environ.get(PROFILE_RANK_ENV, "0")):
        return fn

    def profiled():
        import cProfile
        import pstats

        prof = cProfile.Profile()
        prof.enable()
        try:
            return fn()
        finally:
            prof.disable()
            out = os.environ.get(PROFILE_OUT_ENV)
            if out:
                prof.dump_stats(out)
                print(f"[repro] rank {rank} profile written to {out}", file=sys.stderr)
            else:
                stats = pstats.Stats(prof, stream=sys.stderr)
                stats.sort_stats("cumulative")
                print(f"[repro] rank {rank} cProfile (REPRO_PROFILE=1):", file=sys.stderr)
                stats.print_stats(40)

    return profiled


@dataclass
class RankProfile:
    """One rank's operation counts at a point in time."""

    rank: int
    rputs: int = 0
    rgets: int = 0
    rpcs_sent: int = 0
    rpcs_executed: int = 0
    progress_calls: int = 0
    sim_time: float = 0.0

    @classmethod
    def capture(cls) -> "RankProfile":
        """Snapshot the calling rank's counters (inside an SPMD region)."""
        from repro.upcxx.runtime import current_runtime

        rt = current_runtime()
        return cls(
            rank=rt.rank,
            rputs=rt.n_rputs,
            rgets=rt.n_rgets,
            rpcs_sent=rt.n_rpcs_sent,
            rpcs_executed=rt.n_rpcs_executed,
            progress_calls=rt.n_progress_calls,
            sim_time=rt.now(),
        )

    def delta(self, earlier: "RankProfile") -> "RankProfile":
        """Counters accumulated since an earlier snapshot."""
        if earlier.rank != self.rank:
            raise ValueError("profiles from different ranks")
        return RankProfile(
            rank=self.rank,
            rputs=self.rputs - earlier.rputs,
            rgets=self.rgets - earlier.rgets,
            rpcs_sent=self.rpcs_sent - earlier.rpcs_sent,
            rpcs_executed=self.rpcs_executed - earlier.rpcs_executed,
            progress_calls=self.progress_calls - earlier.progress_calls,
            sim_time=self.sim_time - earlier.sim_time,
        )


@dataclass
class RunProfile:
    """A whole job's profile: per-rank rows plus conduit totals."""

    ranks: List[RankProfile] = field(default_factory=list)
    conduit: Dict[str, int] = field(default_factory=dict)

    def add(self, p: RankProfile) -> None:
        self.ranks.append(p)

    def totals(self) -> Dict[str, int]:
        out = {
            "rputs": sum(p.rputs for p in self.ranks),
            "rgets": sum(p.rgets for p in self.ranks),
            "rpcs_sent": sum(p.rpcs_sent for p in self.ranks),
            "rpcs_executed": sum(p.rpcs_executed for p in self.ranks),
            "progress_calls": sum(p.progress_calls for p in self.ranks),
        }
        out.update({f"wire_{k}": v for k, v in self.conduit.items()})
        return out

    def imbalance(self) -> float:
        """Max/mean ratio of per-rank message initiations (load balance)."""
        loads = [p.rputs + p.rgets + p.rpcs_sent for p in self.ranks]
        if not loads or sum(loads) == 0:
            return 1.0
        mean = sum(loads) / len(loads)
        return max(loads) / mean if mean else 1.0

    def report(self) -> str:
        """Human-readable summary."""
        t = self.totals()
        lines = [
            "== run profile ==",
            f"ranks: {len(self.ranks)}",
            f"rputs: {t['rputs']}  rgets: {t['rgets']}  "
            f"rpcs: {t['rpcs_sent']} sent / {t['rpcs_executed']} executed",
            f"progress calls: {t['progress_calls']}",
        ]
        if self.conduit:
            lines.append(
                "wire: "
                + "  ".join(f"{k}={v}" for k, v in sorted(self.conduit.items()) if k != "bytes_out")
            )
            if "bytes_out" in self.conduit:
                lines.append(f"bytes on the wire: {fmt_bytes(self.conduit['bytes_out'])}")
        if self.ranks:
            tmax = max(p.sim_time for p in self.ranks)
            lines.append(f"simulated time: {fmt_time(tmax)}")
            lines.append(f"initiation imbalance (max/mean): {self.imbalance():.2f}")
        return "\n".join(lines)


def profile_spmd(fn, ranks: int, **run_kwargs) -> RunProfile:
    """Run ``fn`` under :func:`repro.upcxx.run_spmd`, collecting a profile."""
    import repro.upcxx as upcxx

    prof = RunProfile()
    holder: dict = {}

    def wrapped():
        fn()
        upcxx.barrier()
        prof.add(RankProfile.capture())
        holder["conduit"] = upcxx.current_runtime().conduit

    upcxx.run_spmd(wrapped, ranks, **run_kwargs)
    prof.ranks.sort(key=lambda p: p.rank)
    prof.conduit = holder["conduit"].stats()
    return prof
