"""Fig. 9: symPACK strong scaling, UPC++ v0.1 vs v1.0.

The paper ports symPACK from the predecessor UPC++ (asyncs + events) to
v1.0 (futures + RPC) and finds the two "nearly identical" — average
difference 0.7% across job sizes, with v1.0 up to 7.2% faster at 256
processes — i.e. the redesigned runtime adds no measurable overhead.

Here the same multifrontal Cholesky skeleton runs over both backends on
the ``Flan_1565`` proxy problem (DESIGN.md §2).
"""

from __future__ import annotations

from typing import Dict, Sequence

import repro.upcxx as upcxx
from repro.apps.sparse.extend_add import build_eadd_plan
from repro.apps.sparse.sympack import sympack_run
from repro.gasnet.cpumodel import platform_cpu
from repro.util.records import BenchTable

#: default process counts (paper: 4 ... 1024)
FIG9_PROCS = [4, 8, 16, 32, 64]
#: proxy problem dimensions for Flan_1565 (see matrices.proxy_flan);
#: sized so dense factorization flops dominate, as in the real solver
FIG9_GRID = (20, 20, 12)
FIG9_LEAF = 60


def sympack_times(
    n_procs: int,
    platform: str = "haswell",
    grid: Sequence[int] = FIG9_GRID,
    leaf: int = FIG9_LEAF,
) -> Dict[str, float]:
    """Elapsed simulated seconds of one factorization sweep per backend."""
    plan = build_eadd_plan(*grid, n_procs=n_procs, leaf_size=leaf)
    ppn = platform_cpu(platform).ppn_eadd

    t_v1 = max(
        upcxx.run_spmd(lambda: sympack_run(plan, "v1"), n_procs, platform=platform, ppn=ppn)
    )
    t_v01 = max(
        upcxx.run_spmd(lambda: sympack_run(plan, "v01"), n_procs, platform=platform, ppn=ppn)
    )
    return {"UPC++ v1.0": t_v1, "UPC++ v0.1": t_v01}


def run_fig9(
    platform: str = "haswell",
    procs: Sequence[int] = FIG9_PROCS,
    grid: Sequence[int] = FIG9_GRID,
    leaf: int = FIG9_LEAF,
) -> BenchTable:
    """Fig. 9: symPACK time vs process count for both UPC++ generations."""
    table = BenchTable(
        title=f"Fig 9 ({platform}): symPACK strong scaling (Flan_1565 proxy)",
        x_name="processes",
        y_name="time (s)",
    )
    s_v01 = table.new_series("UPC++ v0.1")
    s_v1 = table.new_series("UPC++ v1.0")
    for p in procs:
        times = sympack_times(p, platform, grid, leaf)
        s_v01.add(p, times["UPC++ v0.1"])
        s_v1.add(p, times["UPC++ v1.0"])
    return table


def average_difference(table: BenchTable) -> float:
    """Mean |v1 - v01| / v01 across job sizes (the paper reports 0.7%)."""
    s1 = table.get("UPC++ v1.0")
    s0 = table.get("UPC++ v0.1")
    diffs = [abs(a - b) / b for a, b in zip(s1.ys, s0.ys)]
    return sum(diffs) / len(diffs)
