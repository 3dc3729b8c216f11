"""Tests for the per-rank deterministic RNG streams."""

import numpy as np
import pytest

from repro.sim.rng import RankRandom


class TestRankRandom:
    def test_same_inputs_same_stream(self):
        a = RankRandom(0, 3)
        b = RankRandom(0, 3)
        assert [a.key64() for _ in range(5)] == [b.key64() for _ in range(5)]

    def test_rank_independence(self):
        a = RankRandom(0, 0)
        b = RankRandom(0, 1)
        assert [a.key64() for _ in range(5)] != [b.key64() for _ in range(5)]

    def test_seed_independence(self):
        a = RankRandom(1, 0)
        b = RankRandom(2, 0)
        assert a.key64() != b.key64()

    def test_rank_stream_stable_under_job_growth(self):
        """Rank r's stream does not depend on how many ranks exist —
        the property the weak-scaling benchmarks rely on."""
        small_job = [RankRandom(0, r).key64() for r in range(2)]
        big_job = [RankRandom(0, r).key64() for r in range(8)]
        assert big_job[:2] == small_job

    def test_salted_spawn_differs_from_parent(self):
        a = RankRandom(0, 0)
        child = a.spawn("phase2")
        b = RankRandom(0, 0)
        assert child.key64() != b.key64()
        # spawning is itself deterministic
        assert RankRandom(0, 0).spawn("phase2").key64() == RankRandom(0, 0).spawn("phase2").key64()

    def test_numpy_generator_available(self):
        r = RankRandom(0, 0)
        arr = r.np.standard_normal(10)
        assert arr.shape == (10,)
        assert np.array_equal(arr, RankRandom(0, 0).np.standard_normal(10))

    def test_keys_roughly_uniform(self):
        r = RankRandom(0, 0)
        keys = [r.key64() for _ in range(2000)]
        assert len(set(keys)) == 2000  # no collisions at this scale
        high_bits = sum(1 for k in keys if k >> 63)
        assert 800 < high_bits < 1200  # top bit ~ fair coin
