"""Benchmark platform presets matching the paper's testbed (§IV-A).

Cori Haswell: 32 ranks/node (2x16-core Xeon E5-2698v3), and Cori KNL:
68-core Xeon Phi 7250 (the DHT runs use all 68; extend-add uses 64/node).
The simulated scale is reduced relative to the paper (see DESIGN.md §2) but
the node geometry and CPU-speed ratio are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class PlatformSpec:
    """One named platform configuration for benchmarks."""

    name: str
    ppn_dht: int  # processes/node for the DHT runs
    ppn_eadd: int  # processes/node for the extend-add runs


PLATFORMS = {
    "haswell": PlatformSpec(name="haswell", ppn_dht=32, ppn_eadd=32),
    "knl": PlatformSpec(name="knl", ppn_dht=68, ppn_eadd=64),
}
