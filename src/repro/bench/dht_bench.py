"""Fig. 4: weak scaling of distributed hash table insertion.

Methodology mirrors §IV-C: every process inserts a distinct set of random
8-byte keys with values of a given size, **blocking after each insertion**
(the benchmark is latency-limited).  The same total volume is inserted per
process regardless of element size (smaller elements → more iterations).
The 1-process point is the serial std-map baseline that "omits all calls
to UPC++".  The y axis is aggregate insert throughput.
"""

from __future__ import annotations

import os
from typing import Dict, Sequence

import repro.upcxx as upcxx
from repro.apps.dht import DhtRmaLz, SerialMap
from repro.util.records import BenchTable
from repro.util.units import KiB, MiB

#: paper-like default element sizes (bytes)
FIG4_VALUE_SIZES = [512, 2 * KiB, 8 * KiB]

#: default process counts (paper: up to 16384/34816; scaled down,
#: §DESIGN.md).  REPRO_MAX_PROCS extends the sweep.
FIG4_PROCS = [1, 2, 4, 8, 16, 32, 64, 128]
_cap = int(os.environ.get("REPRO_MAX_PROCS", "0"))
while _cap and FIG4_PROCS[-1] * 2 <= _cap:
    FIG4_PROCS.append(FIG4_PROCS[-1] * 2)
#: volume inserted per process per configuration
FIG4_VOLUME_PER_RANK = 64 * KiB


def dht_insert_rate(
    n_procs: int,
    value_size: int,
    volume_per_rank: int = FIG4_VOLUME_PER_RANK,
    platform: str = "haswell",
    seed: int = 0,
) -> float:
    """Aggregate insert throughput (bytes/second) for one configuration."""
    n_inserts = max(1, volume_per_rank // value_size)

    if n_procs == 1:
        # serial baseline: local map only, no UPC++ calls
        def serial_body():
            m = SerialMap()
            rng = upcxx.runtime_here().rng
            payload = bytes(value_size)
            t0 = upcxx.sim_now()
            for _ in range(n_inserts):
                m.insert(rng.key64(), payload)
            return upcxx.sim_now() - t0

        elapsed = upcxx.run_spmd(serial_body, 1, platform=platform, seed=seed)[0]
        return n_inserts * value_size / elapsed

    def body():
        dht = DhtRmaLz()
        rng = upcxx.runtime_here().rng.spawn("dht-bench")
        payload = bytes(value_size)
        upcxx.barrier()
        t0 = upcxx.sim_now()
        for _ in range(n_inserts):
            dht.insert(rng.key64(), payload).wait()  # blocking, per the paper
        upcxx.barrier()
        return upcxx.sim_now() - t0

    elapsed = max(
        upcxx.run_spmd(
            body,
            n_procs,
            platform=platform,
            seed=seed,
            segment_size=max(4 * MiB, 4 * n_inserts * value_size),
        )
    )
    return n_procs * n_inserts * value_size / elapsed


def run_fig4(
    platform: str = "haswell",
    procs: Sequence[int] = FIG4_PROCS,
    value_sizes: Sequence[int] = FIG4_VALUE_SIZES,
    volume_per_rank: int = FIG4_VOLUME_PER_RANK,
) -> BenchTable:
    """Fig. 4a/4b: one weak-scaling line per element size."""
    table = BenchTable(
        title=f"Fig 4 ({platform}): DHT insert weak scaling",
        x_name="processes",
        y_name="aggregate MB/s",
    )
    for vs in value_sizes:
        series = table.new_series(f"{vs}B values")
        for p in procs:
            rate = dht_insert_rate(p, vs, volume_per_rank, platform)
            series.add(p, rate / 1e6)
    return table


def efficiency(table: BenchTable, label: str, base_procs: int = 2) -> Dict[int, float]:
    """Weak-scaling efficiency vs the ``base_procs`` point (per process)."""
    s = table.get(label)
    base = s.y_at(base_procs) / base_procs
    return {p: (y / p) / base for p, y in zip(s.xs, s.ys) if p >= base_procs}
