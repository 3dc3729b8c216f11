"""Open-loop client traffic for the KV service (deterministic).

Models a front-end rank's view of a large client population:

- **Poisson arrivals** — exponential inter-arrival times at a configured
  per-rank offered rate.  Open loop: an arrival's timestamp never waits
  for earlier requests to finish, so under saturation the backlog (and
  the measured sojourn latency) grows — exactly the behavior a
  saturation-knee sweep needs to expose.
- **Bursty modulation** — with probability ``burst_prob`` per request the
  stream enters a burst of ``burst_len`` requests at ``burst_mult`` times
  the base rate (a two-state modulated Poisson process), modeling flash
  crowds without giving up determinism.
- **Zipf key skew** — keys are drawn from a shared key space with
  probability proportional to ``1/rank**zipf_s`` (inverse-CDF sampling),
  so a handful of hot keys dominate — the regime the aggregator's
  hot-key cache targets.
- **Read/write mix** — each request is a read with probability
  ``read_fraction``; writes carry a deterministic pseudo-random value.

All randomness flows through one ``random.Random`` handed in by the
caller (derive it from the rank's :class:`repro.sim.rng.RankRandom`), so
per-rank request streams are reproducible bit for bit.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, List, Tuple

#: one request: (arrival offset seconds, "get" | "put", key, value)
Request = Tuple[float, str, int, int]


def zipf_cdf(n_keys: int, s: float) -> List[float]:
    """Cumulative distribution of a Zipf(s) law over ``n_keys`` ranks."""
    if n_keys < 1:
        raise ValueError(f"n_keys must be >= 1, got {n_keys}")
    weights = [1.0 / (i + 1) ** s for i in range(n_keys)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cdf.append(acc / total)
    cdf[-1] = 1.0
    return cdf


class TrafficModel:
    """Deterministic open-loop request stream for one front-end rank."""

    def __init__(
        self,
        rng,
        *,
        rate: float,
        n_requests: int,
        read_fraction: float = 0.9,
        zipf_s: float = 1.1,
        n_keys: int = 1024,
        burst_prob: float = 0.0,
        burst_mult: float = 4.0,
        burst_len: int = 32,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError(f"read_fraction must be in [0, 1], got {read_fraction}")
        self.rng = rng
        self.rate = rate
        self.n_requests = n_requests
        self.read_fraction = read_fraction
        self.burst_prob = burst_prob
        self.burst_mult = burst_mult
        self.burst_len = burst_len
        self._cdf = zipf_cdf(n_keys, zipf_s)

    def draw_key(self) -> int:
        """One Zipf-skewed key (0 is the hottest)."""
        return bisect_left(self._cdf, self.rng.random())

    def requests(self) -> Iterator[Request]:
        """Yield ``n_requests`` arrivals in nondecreasing time order."""
        rng = self.rng
        t = 0.0
        burst_left = 0
        for _ in range(self.n_requests):
            r = self.rate * (self.burst_mult if burst_left > 0 else 1.0)
            t += rng.expovariate(r)
            if burst_left > 0:
                burst_left -= 1
            elif self.burst_prob > 0.0 and rng.random() < self.burst_prob:
                burst_left = self.burst_len
            key = self.draw_key()
            if rng.random() < self.read_fraction:
                yield (t, "get", key, 0)
            else:
                yield (t, "put", key, rng.getrandbits(31))
