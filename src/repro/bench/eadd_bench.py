"""Fig. 8: strong scaling of extend-add (three variants).

The paper runs the extend-add sweep of ``audikw_1``'s frontal tree (data
distribution from STRUMPACK) with 32/64 processes per node on Haswell/KNL,
1–2048 processes.  Here the tree comes from the scaled 3-D proxy problem
(DESIGN.md §2) and process counts sweep 1–128 by default; the quantities
that matter — who wins and by what factor, and how the gap grows with
scale — are preserved.

Each data point is one full bottom-up tree sweep: the same packing,
the same data volume, the same accumulation work in every variant.
"""

from __future__ import annotations

import os
from typing import Dict, Sequence

import repro.upcxx as upcxx
from repro.apps.sparse.extend_add import EaddPlan, build_eadd_plan, mpi_eadd_run, upcxx_eadd_run
from repro.gasnet.cpumodel import platform_cpu
from repro.mpisim import run_mpi
from repro.util.records import BenchTable

#: default process counts (paper: up to 2048).  Set REPRO_MAX_PROCS to
#: extend the sweep (e.g. REPRO_MAX_PROCS=512 doubles it twice); larger
#: sweeps grow simulation wall time roughly linearly in total events.
FIG8_PROCS = [1, 2, 4, 8, 16, 32, 64, 128]
_cap = int(os.environ.get("REPRO_MAX_PROCS", "0"))
while _cap and FIG8_PROCS[-1] * 2 <= _cap:
    FIG8_PROCS.append(FIG8_PROCS[-1] * 2)
#: proxy problem dimensions for audikw_1 (see matrices.proxy_audikw)
FIG8_GRID = (16, 16, 12)
FIG8_LEAF = 48


def eadd_times(
    n_procs: int,
    platform: str = "haswell",
    grid: Sequence[int] = FIG8_GRID,
    leaf: int = FIG8_LEAF,
    plan: EaddPlan = None,
) -> Dict[str, float]:
    """Elapsed simulated seconds of one sweep for each variant."""
    if plan is None:
        plan = build_eadd_plan(*grid, n_procs=n_procs, leaf_size=leaf)
    ppn = platform_cpu(platform).ppn_eadd

    def upcxx_body():
        return upcxx_eadd_run(plan)

    t_upcxx = max(upcxx.run_spmd(upcxx_body, n_procs, platform=platform, ppn=ppn))
    t_a2a = max(
        run_mpi(lambda: mpi_eadd_run(plan, "alltoallv"), n_procs, platform=platform, ppn=ppn)
    )
    t_p2p = max(
        run_mpi(lambda: mpi_eadd_run(plan, "p2p"), n_procs, platform=platform, ppn=ppn)
    )
    return {"UPC++ RPC": t_upcxx, "MPI Alltoallv": t_a2a, "MPI P2P": t_p2p}


def run_fig8(
    platform: str = "haswell",
    procs: Sequence[int] = FIG8_PROCS,
    grid: Sequence[int] = FIG8_GRID,
    leaf: int = FIG8_LEAF,
) -> BenchTable:
    """Fig. 8 (one panel): extend-add time vs process count, 3 variants."""
    table = BenchTable(
        title=f"Fig 8 ({platform}): extend-add strong scaling (audikw_1 proxy)",
        x_name="processes",
        y_name="time (s)",
    )
    s_a2a = table.new_series("MPI Alltoallv")
    s_p2p = table.new_series("MPI P2P")
    s_upcxx = table.new_series("UPC++ RPC")
    for p in procs:
        times = eadd_times(p, platform, grid, leaf)
        s_a2a.add(p, times["MPI Alltoallv"])
        s_p2p.add(p, times["MPI P2P"])
        s_upcxx.add(p, times["UPC++ RPC"])
    return table


def speedup_at_scale(table: BenchTable, p: int) -> Dict[str, float]:
    """UPC++ speedup vs each MPI variant at ``p`` processes."""
    u = table.get("UPC++ RPC").y_at(p)
    return {
        "vs_alltoallv": table.get("MPI Alltoallv").y_at(p) / u,
        "vs_p2p": table.get("MPI P2P").y_at(p) / u,
    }
