"""Top-level UPC++ entry points: starting SPMD regions and rank queries.

``run_spmd(fn, ranks, platform=...)`` is the reproduction's analogue of
launching an ``upcxx::init()``-ed executable under SLURM: it builds the
simulated machine (nodes x procs-per-node of the chosen platform), the
conduit, and one :class:`~repro.upcxx.runtime.Runtime` per rank, then runs
``fn`` on every rank and returns the per-rank results.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.gasnet.cpumodel import CpuModel, platform_cpu
from repro.gasnet.machine import Machine
from repro.gasnet.network import AriesNetwork, NetworkModel
from repro.sim.coop import Scheduler, current_scheduler
from repro.sim.errors import RankDeadError, RankFailure
from repro.sim.faults import FaultPlan
from repro.upcxx.costs import DEFAULT_COSTS, UpcxxCosts
from repro.upcxx.errors import NotInSpmdError
from repro.upcxx.runtime import Runtime, World, current_runtime
from repro.util.profile import maybe_profiled, profiling_enabled

#: default processes-per-node, matching the paper's configurations
DEFAULT_PPN = {"haswell": 32, "knl": 68}


def default_ppn(platform: str) -> int:
    return DEFAULT_PPN.get(platform.lower(), 32)


def run_spmd(
    fn: Callable[[], object],
    ranks: int,
    platform: str = "haswell",
    ppn: Optional[int] = None,
    network: Optional[NetworkModel] = None,
    cpu: Optional[CpuModel] = None,
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
    ``telemetry`` (a :class:`repro.util.Telemetry`) for windowed counter
    rollups plus an always-on flight recorder — when the run ends in
    :class:`~repro.sim.errors.RankDeadError`/:class:`~repro.sim.errors.RankFailure`
    a post-mortem ``blackbox`` bundle is assembled (and written to
    ``telemetry.blackbox_path`` when configured) before the error
    propagates.  All default to off and cost nothing when absent.

    Pass a dict as ``sched_stats`` to receive the scheduler's run counters
    (switches, events fired — see :meth:`Scheduler.stats`) after the run.

    ``faults`` enables chaos injection: a :class:`repro.sim.faults.FaultPlan`,
    a spec string (``"seed=1,drop=0.05,crash=2@1e-3"``), or a kwargs dict.
    Defaults to ``$REPRO_FAULTS`` (off when unset).  With a plan active the
    conduit runs in reliable-delivery mode — acks, timeouts, retransmits —
    so UPC++-level semantics stay exactly-once; crashed ranks fail-stop and
    survivors observe :class:`repro.sim.errors.RankDeadError`.
    """
    faults = FaultPlan.resolve(faults)
    ppn = ppn if ppn is not None else default_ppn(platform)
    machine = Machine.for_ranks(ranks, ppn, name=platform)
    network = network if network is not None else AriesNetwork()
    cpu = cpu if cpu is not None else platform_cpu(platform)
    sched = Scheduler(ranks, trace=trace, max_time=max_time)
    world = World(
        sched, machine, network, cpu, costs, segment_size, seed,
        metrics=metrics, spans=spans, faults=faults, telemetry=telemetry,
    )

    def bootstrap(rank: int):
        rt = Runtime(world, rank)
        sched.set_client(rt)
        sched.rank_env()["upcxx_rt"] = rt
        body = fn
        if profiling_enabled():
            # REPRO_PROFILE=1: cProfile one rank's body (see util.profile)
            body = maybe_profiled(fn, rank)
        try:
            result = body()
            # close the final (partial) rollup window at the rank's own
            # completion time — only on the success path, where the clock
            # read is deterministic (abort unwinding is not)
            rt._telemetry_finalize()
            return result
        finally:
            sched.set_client(None)
            sched.rank_env().pop("upcxx_rt", None)

    try:
        results = sched.run(bootstrap)
        tel = world.telemetry
        if (
            tel is not None
            and faults is not None
            and faults.survivable
            and faults.crashes
        ):
            # the run outlived its crashes (replication/failover): emit
            # the same post-mortem bundle with a "Survived" verdict so
            # chaos tooling has the replica-state tables either way
            tel.emit_blackbox(None, faults)
        return results
    except (RankDeadError, RankFailure) as err:
        tel = world.telemetry
        if tel is not None:
            # post-mortem flight-recorder bundle
            tel.emit_blackbox(err, faults)
        raise
    finally:
        if sched_stats is not None:
            sched_stats.update(sched.stats())
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
        current_scheduler().rank_env()["upcxx_rt"]
        return True
    except Exception:
        return False


def runtime_here() -> Runtime:
    """The calling rank's runtime (escape hatch for instrumentation)."""
    return current_runtime()
