"""Tests for the aggregating counter the apps count with (HipMer-style batching).

The counter is an additive :class:`~repro.upcxx.aggregator.AggStore`:
``update(k, delta)`` adds, ``quiesce()`` is the sync that flushes every
partial buffer, and ``read(k, default=0)`` is the count.
"""

import pytest

import repro.upcxx as upcxx
from repro.upcxx.aggregator import AggStore


class TestAggregatingCounter:
    def test_partial_buffers_flushed_by_sync(self):
        def body():
            counter = AggStore("+", batch_size=1000)  # never auto-flushes
            upcxx.barrier()
            counter.update(42, 5)
            counter.quiesce()
            v = counter.read(42, default=0).wait()
            upcxx.barrier()
            return v

        res = upcxx.run_spmd(body, 2)
        assert res[0] == 10

    def test_invalid_batch_size(self):
        def body():
            with pytest.raises(ValueError):
                AggStore("+", batch_size=0)

        upcxx.run_spmd(body, 1)

    def test_total_mass_conserved(self):
        def body():
            counter = AggStore("+", batch_size=16)
            upcxx.barrier()
            rng = upcxx.runtime_here().rng.spawn("mass")
            n_adds = 100
            for _ in range(n_adds):
                counter.update(rng.key64() % 64, 1)
            counter.quiesce()
            local = sum(counter.local_items().values())
            total = upcxx.reduce_all(local, "+").wait()
            upcxx.barrier()
            return total

        res = upcxx.run_spmd(body, 4)
        assert all(t == 400 for t in res)
