"""Cray-MPICH-like software cost profile.

Calibrated so the *relative* UPC++/MPI behavior of the paper's Fig. 3
emerges from the model (see DESIGN.md §4 and the fig-3 benchmarks):

- small blocking put: MPI pays ``put_sw + flush_sw`` where UPC++ pays
  ``rma_inject + completion + progress_poll`` (``tests/test_mpisim.py``, 8 B);
- 256 B – 1 KiB blocking put (window [256, 2048) B): a fitted penalty makes
  UPC++ 31–32 % faster (the paper's ">25% improvement from 256 to 1024 bytes");
- flood bandwidth: a fitted Gaussian pipeline-efficiency dip, deepest at 8 KiB
  (the paper's "over 33% more bandwidth at 8 KiB"), vanishing toward both
  ends ("comparable for small and large sizes").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.util.units import US


@dataclass(frozen=True)
class MpiCosts:
    """Haswell-calibrated per-op software costs of the MPI baseline, tagged (DESIGN.md §4)."""

    # -------------------------------------------------------------- pt2pt
    #: [repr] Isend software path (request allocation, descriptor, matching info;
    #: Cray MPICH two-sided is markedly heavier than one-sided AM injection)
    send_inject: float = 0.70 * US
    #: [repr] posting/matching a receive
    recv_match: float = 0.55 * US
    #: [repr] completing one request (test/wait bookkeeping)
    req_complete: float = 0.20 * US
    #: [repr] one linear matching step (wildcard receives scan queues linearly;
    #: fully-specified receives resolve via hashed buckets and pay one step)
    unexpected_scan: float = 0.08 * US
    #: [hw] eager -> rendezvous protocol threshold (Cray MPICH default)
    rndv_threshold: int = 8192
    #: [repr] fixed handshake software cost at each side of a rendezvous
    rndv_sw: float = 0.30 * US

    # ---------------------------------------------------------------- RMA
    #: [repr] MPI_Put/Get software path (origin-side)
    put_sw: float = 0.45 * US
    #: [repr] MPI_Win_flush software path
    flush_sw: float = 0.30 * US
    #: [fit] protocol-switch penalty window for blocking-latency puts (Fig. 3a)
    win_sync_window_lo: int = 256
    win_sync_window_hi: int = 2048  #: [fit] the window's end (exclusive)
    win_sync_extra: float = 0.55 * US  #: [fit] the penalty
    #: [fit] mid-size pipeline-efficiency dip (Fig. 3b):
    #: eff(n) = 1 - A * exp(-(log2 n - center)^2 / sigma2)
    rma_dip_amplitude: float = 0.26
    rma_dip_center_log2: float = 13.0  #: [fit] 8 KiB
    rma_dip_sigma2: float = 10.0  #: [fit] the dip's width

    # ---------------------------------------------------------- collectives
    #: [repr] per-call setup of a collective
    coll_sw: float = 0.30 * US
    #: [repr] per-peer setup inside Alltoallv (count/displacement processing)
    alltoallv_per_peer: float = 0.08 * US
    #: [repr] progress-poll cost
    progress_poll: float = 0.06 * US

    #: [repr] FMA->BTE path threshold (same hardware decision space as GASNet)
    bte_threshold: int = 4096

    def rma_pipeline_eff(self, nbytes: int) -> float:
        """Wire-pipeline efficiency of the MPI RMA path at ``nbytes``."""
        if nbytes <= 0:
            return 1.0
        x = math.log2(nbytes) - self.rma_dip_center_log2
        return 1.0 - self.rma_dip_amplitude * math.exp(-(x * x) / self.rma_dip_sigma2)

    def rma_occ_scale(self, nbytes: int) -> float:
        """Occupancy multiplier handed to the conduit for RMA transfers."""
        return 1.0 / self.rma_pipeline_eff(nbytes)

    def latency_window_extra(self, nbytes: int) -> float:
        """Extra blocking-put software cost in the protocol-switch window."""
        if self.win_sync_window_lo <= nbytes < self.win_sync_window_hi:
            return self.win_sync_extra
        return 0.0


DEFAULT_MPI_COSTS = MpiCosts()
