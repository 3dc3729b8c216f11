#!/usr/bin/env python3
"""Distributed k-mer counting — the genome-assembly workload that motivates
the paper's DHT motif (§IV-C cites HipMer's extreme-scale assembler [13]).

Every rank reads a shard of synthetic DNA, slides a window of length k
over it, and counts each k-mer in a distributed hash table keyed by the
k-mer's packed value.  Counting uses a single fire-and-forget RPC per
k-mer batch (aggregated per destination — the classic HipMer optimization)
so the run is injection-rate- rather than latency-bound.  At the end the
ranks find the globally most frequent k-mers with a reduction.

Run:  python examples/kmer_count.py
"""

from collections import Counter

import repro.upcxx as upcxx

K = 9
BASES = "ACGT"
READS_PER_RANK = 8
READ_LEN = 120


def _synthetic_read(rng, length: int) -> str:
    """A pseudo-genome read with repeated motifs (so some k-mers are hot)."""
    motif = "ACGTACGGT"
    out = []
    while sum(map(len, out)) < length:
        if rng.py.random() < 0.35:
            out.append(motif)
        else:
            out.append(BASES[rng.py.randrange(4)])
    return "".join(out)[:length]


def _pack_kmer(kmer: str) -> int:
    v = 0
    for c in kmer:
        v = (v << 2) | BASES.index(c)
    return v


def _count_batch(dmap: upcxx.DistObject, batch: dict) -> None:
    """RPC body: merge a {kmer: count} batch into the local shard."""
    rt = upcxx.current_runtime()
    rt.charge_sw(rt.cpu.map_insert * len(batch))
    shard = dmap.value
    for kmer, n in batch.items():
        shard[kmer] = shard.get(kmer, 0) + n


def main():
    me = upcxx.rank_me()
    n = upcxx.rank_n()
    from repro.upcxx.aggregator import default_route

    shard: dict = {}
    dmap = upcxx.DistObject(shard)
    upcxx.barrier()

    # ---- local pass: count my reads' k-mers, binned by destination ------
    rng = upcxx.runtime_here().rng.spawn("kmers")
    outgoing = [Counter() for _ in range(n)]
    total_kmers = 0
    for _ in range(READS_PER_RANK):
        read = _synthetic_read(rng, READ_LEN)
        for i in range(len(read) - K + 1):
            packed = _pack_kmer(read[i : i + K])
            outgoing[default_route(packed, n)][packed] += 1
            total_kmers += 1

    # ---- one aggregated rpc_ff per destination (HipMer-style batching) --
    for dest, batch in enumerate(outgoing):
        if batch:
            upcxx.rpc_ff(dest, _count_batch, dmap, dict(batch))
    upcxx.barrier()  # barrier progress also drains incoming batches

    # ---- global top-3 via a reduction over per-shard top-3 --------------
    local_top = sorted(shard.items(), key=lambda kv: (-kv[1], kv[0]))[:3]

    def merge_tops(a, b):
        return sorted(a + b, key=lambda kv: (-kv[1], kv[0]))[:3]

    top = upcxx.reduce_all([(k, c) for k, c in local_top], merge_tops).wait()
    total = upcxx.reduce_all(total_kmers, "+").wait()
    stored = upcxx.reduce_all(sum(shard.values()), "+").wait()
    upcxx.barrier()

    if me == 0:
        assert total == stored, "lost k-mers!"

        def unpack(v):
            return "".join(BASES[(v >> (2 * i)) & 3] for i in reversed(range(K)))

        print(f"{n} ranks counted {total} {K}-mers ({stored} stored across shards)")
        for packed, count in top:
            print(f"  {unpack(packed)} x{count}")
        print(f"simulated time: {upcxx.sim_now() * 1e6:.1f} us")


if __name__ == "__main__":
    upcxx.run_spmd(main, ranks=8, platform="haswell")
    print("kmer_count finished.")
