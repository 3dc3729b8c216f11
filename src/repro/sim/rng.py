"""Per-rank deterministic random streams.

Every rank derives an independent stream from ``(global_seed, rank)`` so
that results are reproducible regardless of scheduling and independent of
how many ranks exist (rank r's stream is the same whether the job has 2 or
512 ranks — important for weak-scaling benchmarks whose per-rank workload
must not change shape as the job grows).
"""

from __future__ import annotations

import hashlib
import random

import numpy as np


def _derive_seed(global_seed: int, rank: int, salt: str = "") -> int:
    """Derive a 64-bit child seed via SHA-256 (stable across Python runs)."""
    h = hashlib.sha256(f"{global_seed}:{rank}:{salt}".encode()).digest()
    return int.from_bytes(h[:8], "little")


class RankRandom:
    """A rank's bundle of deterministic generators.

    Attributes
    ----------
    py : random.Random
        For scalar draws (targets, keys).
    np : numpy.random.Generator
        For bulk array draws (payload contents).
    """

    def __init__(self, global_seed: int, rank: int, salt: str = ""):
        self.seed = _derive_seed(global_seed, rank, salt)
        self.py = random.Random(self.seed)
        self.np = np.random.default_rng(self.seed)
        self.rank = rank

    def spawn(self, salt: str) -> "RankRandom":
        """Derive an independent child stream (e.g. per benchmark phase)."""
        child = RankRandom.__new__(RankRandom)
        child.seed = _derive_seed(self.seed, self.rank, salt)
        child.py = random.Random(child.seed)
        child.np = np.random.default_rng(child.seed)
        child.rank = self.rank
        return child

    def key64(self) -> int:
        """A uniform 64-bit key (the paper's DHT uses random 8-byte keys)."""
        return self.py.getrandbits(64)
