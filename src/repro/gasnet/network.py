"""Wire-level network model (the simulated Cray Aries fabric).

The model separates two hardware transfer paths, mirroring Aries:

- **FMA** (Fused Memory Access): CPU-driven stores into the NIC; very low
  startup, moderate bandwidth.  Used for small transfers and AM headers.
- **BTE** (Block Transfer Engine): DMA offload; a startup cost, then full
  link bandwidth.  Used for large transfers.

A transfer from rank *s* to rank *d* consists of:

1. **NIC injection occupancy** at the source: the NIC link can carry one
   message at a time, so a flood of messages serializes on
   ``occupancy(nbytes, path)``.  This is what limits flood bandwidth once
   software injection overhead stops being the bottleneck.
2. **Wire latency**: ``latency_oneway`` (much smaller intra-node).
3. **Delivery** at the destination.

Numbers are calibrated against published Aries/GASNet-EX measurements
(~1.3 us round trip small put, ~10 GiB/s per-NIC streaming bandwidth) so
the microbenchmark *shapes* in the paper's Fig. 3 are reproduced; absolute
values are representative, not authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import GiB, US

PATH_FMA = "fma"
PATH_BTE = "bte"


@dataclass(frozen=True)
class NetworkModel:
    """Parametric network timing model.

    All times in seconds, bandwidths in bytes/second; fields tagged (DESIGN.md §4).
    """

    name: str = "generic"
    latency_oneway: float = 0.65 * US  #: [hw] half an Aries small-put round trip
    latency_oneway_shm: float = 0.15 * US  #: [repr] same node
    bw_fma: float = 7.6 * GiB  #: [repr]
    bw_bte: float = 10.2 * GiB  #: [hw] Aries per-NIC streaming bandwidth
    bw_shm: float = 14.0 * GiB  #: [repr]
    bte_startup: float = 0.12 * US  #: [repr]
    header_bytes: int = 64  #: [repr] control/header traffic per message
    # ---- device (GPU) memory path: PCIe-class staging link per node ----
    pcie_latency: float = 1.80 * US  #: [repr]
    pcie_bw: float = 12.0 * GiB  #: [repr]

    def pcie_time(self, nbytes: int) -> float:
        """One traversal of the host<->device link."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        return self.pcie_latency + nbytes / self.pcie_bw

    def occupancy(self, nbytes: int, path: str, same_node: bool) -> float:
        """NIC (or memory port) time consumed injecting one message."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        total = nbytes + self.header_bytes
        if same_node:
            return total / self.bw_shm
        if path == PATH_FMA:
            return total / self.bw_fma
        if path == PATH_BTE:
            return self.bte_startup + total / self.bw_bte
        raise ValueError(f"unknown path {path!r}")

    def latency(self, same_node: bool) -> float:
        """One-way propagation latency."""
        return self.latency_oneway_shm if same_node else self.latency_oneway


@dataclass(frozen=True)
class AriesNetwork(NetworkModel):
    """The Cray Aries dragonfly defaults used for Cori in this reproduction."""

    name: str = "aries"
