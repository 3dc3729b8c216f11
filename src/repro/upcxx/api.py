"""Top-level UPC++ entry points: starting SPMD regions and rank queries.

``run_spmd(fn, ranks, platform=...)`` is the reproduction's analogue of
launching an ``upcxx::init()``-ed executable under SLURM: it builds the
simulated machine (nodes x procs-per-node of the chosen platform), the
conduit, and one :class:`~repro.upcxx.runtime.Runtime` per rank, then runs
``fn`` on every rank and returns the per-rank results.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.gasnet.machine import build_job
from repro.sim.errors import RankDeadError, RankFailure, SimError
from repro.sim.faults import FaultPlan
from repro.upcxx.costs import DEFAULT_COSTS, UpcxxCosts
from repro.upcxx.errors import NotInSpmdError
from repro.upcxx.runtime import Runtime, World, current_runtime


def run_spmd(
    fn: Callable[[], object],
    ranks: int,
    platform: str = "haswell",
    ppn: Optional[int] = None,
    costs: UpcxxCosts = DEFAULT_COSTS,
    segment_size: int = 32 * 1024 * 1024,
    seed: int = 0,
    max_time: float = 1e6,
    metrics=None,
    trace=None,
    spans=None,
    telemetry=None,
    sched_stats: Optional[dict] = None,
    faults=None,
) -> List[object]:
    """Run ``fn`` as an SPMD program on ``ranks`` simulated processes.

    Inside ``fn``, the full UPC++ API is available (``rank_me``, ``rput``,
    ``rpc`` ...).  Returns the list of per-rank return values.

    Observability: pass ``metrics`` (a :class:`repro.util.Metrics`) to
    collect per-rank op-lifecycle metrics, ``trace`` (a
    :class:`repro.util.TraceBuffer`) to record scheduler/progress events —
    exportable to a Perfetto/Chrome trace via
    :func:`repro.util.export_chrome_trace` — and/or ``spans`` (a
    :class:`repro.util.SpanBuffer`) to capture per-operation causal spans
    for the ``repro.tools.report`` critical-path analysis.  Pass
    ``telemetry`` (a :class:`repro.util.Telemetry`, fresh: one that
    already holds ranks raises ``ValueError``) for windowed counter
    rollups — when the run ends in
    :class:`~repro.sim.errors.RankDeadError`/:class:`~repro.sim.errors.RankFailure`
    a post-mortem ``blackbox`` bundle is assembled (and written to
    ``telemetry.blackbox_path`` when configured) before the error
    propagates; each rank's ``tail`` of last actions in it is cut from
    ``trace``, and is ``None`` when no trace was passed.  All default to
    off; an absent observer costs the progress engine one test of an
    empty sink tuple per boundary.

    Pass a dict as ``sched_stats`` to receive the run counters after the
    run: :meth:`Scheduler.stats` (switches, events fired) and
    :meth:`Conduit.stats` (frames, bytes, retransmits, acks).

    ``faults`` enables chaos injection: a :class:`repro.sim.faults.FaultPlan`
    or a spec string (``"seed=1,drop=0.05,crash=2@1e-3"``).
    Defaults to ``$REPRO_FAULTS`` (off when unset).  With a plan active the
    conduit runs in reliable-delivery mode — acks, timeouts, retransmits —
    so UPC++-level semantics stay exactly-once; crashed ranks fail-stop and
    survivors observe :class:`repro.sim.errors.RankDeadError`.
    """
    if telemetry is not None and telemetry.ranks:
        raise ValueError("run_spmd needs a fresh Telemetry: this one already holds "
                         f"ranks {sorted(telemetry.ranks)} of an earlier run")
    faults = FaultPlan.resolve(faults)
    machine, network, cpu, sched = build_job(ranks, platform, ppn, max_time, trace)
    if telemetry is not None and faults is not None and faults.crashes and not faults.survivable:
        # freeze the windows at the first crash time so the post-mortem
        # bundle shows the job at the moment of death.  Survivable plans
        # keep recording: the post-crash windows are the story there.
        telemetry.freeze_at = min(faults.crashes.values())
    world = World(
        sched, machine, network, cpu, costs, segment_size, seed,
        metrics=metrics, spans=spans, faults=faults, telemetry=telemetry,
    )

    def bootstrap(rank: int):
        rt = Runtime(world, rank)
        sched.set_client(rt)
        t_die = faults.crash_cutoff(rank) if faults is not None else float("inf")
        try:
            result = fn()
            if sched.now() >= t_die:
                # the crash came while the body computed: the rank died
                # before it could report.  The plan's crash time decides,
                # not whether the die event has been delivered yet
                rt.die(t_die)
            rt.finish()
            return result
        finally:
            sched.set_client(None)

    try:
        results = sched.run(bootstrap)
        if telemetry is not None and faults is not None and faults.survivable and faults.crashes:
            # the run outlived its crashes (replication/failover): emit
            # the same post-mortem bundle with a "Survived" verdict so
            # chaos tooling has the replica-state tables either way
            telemetry.emit_blackbox(None, faults, trace)
        return results
    except (RankDeadError, RankFailure) as err:
        if telemetry is not None:
            # post-mortem bundle, its tails cut from the trace
            telemetry.emit_blackbox(err, faults, trace)
        raise
    finally:
        if sched_stats is not None:
            sched_stats.update(sched.stats())
            sched_stats.update(world.conduit.stats())
        world.close()


# ----------------------------------------------------------------- queries
def rank_me() -> int:
    """The calling rank's id (``upcxx::rank_me``)."""
    return current_runtime().rank


def rank_n() -> int:
    """Total rank count (``upcxx::rank_n``)."""
    return current_runtime().world.n_ranks


def progress() -> None:
    """User-level progress (``upcxx::progress``)."""
    current_runtime().progress()


def compute(seconds: float) -> None:
    """Model ``seconds`` of application computation (no progress inside)."""
    current_runtime().compute(seconds)


def sim_now() -> float:
    """Current simulated time on this rank (seconds)."""
    return current_runtime().now()


def in_spmd() -> bool:
    """Whether the caller is inside a UPC++ SPMD region."""
    try:
        current_runtime()
    except (NotInSpmdError, SimError):
        return False
    return True


def runtime_here() -> Runtime:
    """The calling rank's runtime (escape hatch for instrumentation)."""
    return current_runtime()
