"""Per-platform CPU cost model and node widths: the platform table.

The paper evaluates on two Cori partitions (§IV-A) whose *relative* serial
speed is what matters for our shapes:

- **Haswell**: 2.3 GHz Xeon E5-2698v3 — the reference (factor 1.0),
  32 ranks/node (2x16 cores).
- **KNL**: 1.4 GHz Xeon Phi 7250 — much slower serial core.  Software
  overheads (runtime bookkeeping, serialization, hash-table work) scale by
  ``serial_factor``; wire times do not.  The DHT runs use all 68 cores of
  a node, extend-add uses 64.

All costs below are software-path costs *charged by client layers* through
this model, so UPC++ and MPI can have distinct profiles over identical
hardware.  Baseline magnitudes follow published instruction-path
measurements for GASNet-EX/Cray MPICH-era runtimes (fractions of a
microsecond per operation on Haswell).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.units import GiB, US


@dataclass(frozen=True)
class CpuModel:
    """Costs of CPU-side work on one platform, tagged (DESIGN.md §4)."""

    name: str
    #: [repr] multiplier on every software-path cost (KNL ~ 2.6x slower serial)
    serial_factor: float
    #: [repr] memory copy / serialization throughput (bytes/second)
    copy_bw: float
    #: [repr] dense floating point throughput (flops/second) for factorization work
    flop_rate: float
    #: [repr] scattered read-modify-write throughput (updates/second): indexed
    #: accumulation into a distributed front is cache-unfriendly and runs
    #: far below streaming rate on both platforms
    scatter_rate: float
    #: [repr] cost of hashing + std::unordered_map-style insert (excluding payload copy)
    map_insert: float = 0.20 * US
    #: [repr] cost of a map lookup
    map_lookup: float = 0.12 * US
    #: [paper] processes per node of the DHT runs, and of any job that names none
    ppn_dht: int = 32
    #: [paper] processes per node of the extend-add runs
    ppn_eadd: int = 32

    def t(self, base_seconds: float) -> float:
        """Scale a Haswell-calibrated software cost to this platform."""
        return base_seconds * self.serial_factor

    def copy_time(self, nbytes: int) -> float:
        """Time to copy/serialize ``nbytes`` through the CPU."""
        if nbytes < 0:
            raise ValueError(f"negative size: {nbytes}")
        return nbytes / self.copy_bw

    def accumulate_time(self, n_values: int) -> float:
        """Time to scatter-accumulate ``n_values`` doubles (indexed RMW)."""
        if n_values < 0:
            raise ValueError(f"negative count: {n_values}")
        return n_values / self.scatter_rate


#: Cori Haswell: 2.3 GHz Xeon E5-2698v3.
HASWELL = CpuModel(
    name="haswell",
    serial_factor=1.0,
    copy_bw=8.0 * GiB,
    flop_rate=2.4e9,
    scatter_rate=0.45e9,
)

#: Cori KNL: 1.4 GHz Xeon Phi 7250 — slow serial core, slower per-core
#: memory path for pointer-chasing workloads.
KNL = CpuModel(
    name="knl",
    serial_factor=2.6,
    copy_bw=3.2 * GiB,
    flop_rate=1.1e9,
    scatter_rate=0.17e9,
    ppn_dht=68,
    ppn_eadd=64,
)

#: every platform by name
PLATFORMS = {m.name: m for m in (HASWELL, KNL)}


def platform_cpu(name: str) -> CpuModel:
    """Look up a platform CPU model by name."""
    try:
        return PLATFORMS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown platform {name!r}; expected 'haswell' or 'knl'") from None
