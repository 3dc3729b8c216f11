"""Ablation — update aggregation (the HipMer trick behind the paper's DHT
motivation [13]).

The paper's DHT benchmark deliberately blocks per insert to expose
latency; production latency-bound codes batch updates per destination.
Sweeping the batch size shows the throughput curve: per-message software
costs amortize until payload serialization becomes the bottleneck.
"""

import repro.upcxx as upcxx
from repro.bench.harness import save_table
from repro.util.records import BenchTable

N_PROCS = 8
UPDATES_PER_RANK = 384
BATCHES = [1, 4, 16, 64, 256]


def _throughput(batch: int) -> float:
    out = {}

    def body():
        store = upcxx.AggStore("+", batch_size=batch)
        upcxx.barrier()
        rng = upcxx.runtime_here().rng.spawn("agg-bench")
        t0 = upcxx.sim_now()
        for _ in range(UPDATES_PER_RANK):
            store.update(rng.key64() % 4096, 1)
        store.quiesce()
        upcxx.barrier()
        out["t"] = upcxx.sim_now() - t0

    upcxx.run_spmd(body, N_PROCS)
    return N_PROCS * UPDATES_PER_RANK / out["t"]


def test_aggregation_sweep(run_once):
    def sweep():
        table = BenchTable(
            title=f"Ablation: DHT update aggregation ({N_PROCS} procs, {UPDATES_PER_RANK} updates/rank)",
            x_name="batch size",
            y_name="updates/s (millions)",
        )
        s = table.new_series("aggregated updates")
        for b in BATCHES:
            s.add(b, _throughput(b) / 1e6)
        return table

    table = run_once(sweep)
    print("\n" + save_table(table, "ablation_aggregation", y_fmt=lambda y: f"{y:.3f}"))

    s = table.get("aggregated updates")
    # each early doubling of the batch pays off
    assert s.y_at(4) > s.y_at(1) * 1.5
    assert s.y_at(16) > s.y_at(4) * 1.2
    # diminishing returns at large batches (serialization-bound plateau)
    assert s.y_at(256) < s.y_at(64) * 1.5
    # monotone nondecreasing across the sweep
    for a, b in zip(s.ys, s.ys[1:]):
        assert b >= a * 0.95
