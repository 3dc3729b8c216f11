"""Op-lifecycle metrics for the progress engine (observability layer).

The paper's performance story rests on *attentiveness*: how promptly each
rank drains its §III queues (defQ/actQ/compQ).  This module provides the
measurement substrate that makes that behavior visible:

- :class:`Metrics` — one per job, handed to ``upcxx.run_spmd(metrics=...)``;
  holds one :class:`RankMetrics` per rank.
- :class:`RankMetrics` — queue-depth time series (defQ/actQ/compQ plus the
  network-context staging area), per-op-kind dwell-time histograms for each
  state transition of Fig. 2 (deferred→active→complete→fulfilled),
  attentiveness tracking (sim-time gap between consecutive user
  ``progress()`` calls), per-kind operation/byte totals, AM inbox dwell,
  and NIC injection accounting.
- :class:`DwellHistogram` — log2-bucketed duration histogram (nanosecond
  resolution) with exact n/total/min/max, cheap to update and
  deterministic to export.

Everything here is passive data collection: no clock reads, no scheduler
interaction — callers pass explicit simulated times, so recording is safe
from both rank and network context.  When no ``Metrics`` is installed the
instrumented layers skip every hook behind a single ``is not None`` check,
keeping the disabled cost at noise level.

All exports (:meth:`Metrics.as_dict`) are pure functions of the recorded
events, so two same-seed runs serialize to byte-identical JSON — pinned by
``tests/test_examples_determinism.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

#: queue names, in the order they appear in a combined depth sample
QUEUE_NAMES = ("defQ", "actQ", "compQ", "staged")

#: the Fig. 2 state transitions a dwell histogram can describe
TRANSITIONS = ("deferred_to_active", "active_to_complete", "complete_to_fulfilled")


class DwellHistogram:
    """Log2-bucketed histogram of durations (seconds, ns resolution).

    Bucket ``i`` covers ``[2**(i-1), 2**i)`` nanoseconds (bucket 0 holds
    sub-nanosecond and zero durations).  Alongside the buckets the exact
    count, sum, min and max are kept, so means are not quantized.
    """

    __slots__ = ("n", "total", "minimum", "maximum", "buckets")

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def add(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        self.n += 1
        self.total += seconds
        if self.minimum is None or seconds < self.minimum:
            self.minimum = seconds
        if self.maximum is None or seconds > self.maximum:
            self.maximum = seconds
        idx = int(seconds * 1e9).bit_length()
        self.buckets[idx] = self.buckets.get(idx, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def percentile(self, q: float) -> float:
        """Approximate ``q``-th percentile (seconds) from the log2 buckets.

        Linearly interpolates between the edges of the bucket the target
        count lands in (rather than reporting the bucket upper bound),
        then clamps into the exact observed ``[min, max]`` range.  Returns
        0.0 for an empty histogram.
        """
        if self.n == 0:
            return 0.0
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        target = self.n * (q / 100.0)
        seen = 0
        value = self.maximum
        for i in sorted(self.buckets):
            count = self.buckets[i]
            if seen + count >= target:
                lo_ns = 0.0 if i == 0 else float(1 << (i - 1))
                hi_ns = 1.0 if i == 0 else float(1 << i)
                frac = (target - seen) / count
                value = (lo_ns + frac * (hi_ns - lo_ns)) * 1e-9
                break
            seen += count
        return min(max(value, self.minimum), self.maximum)

    def merge(self, other: "DwellHistogram") -> "DwellHistogram":
        """Fold ``other`` into this histogram in place (cross-rank SLOs).

        Exact n/total/min/max merge exactly; the log2 buckets add
        count-wise, so merged percentiles carry the same per-bucket
        interpolation error as single-rank ones.  Returns ``self``.
        """
        if other.n == 0:
            return self
        self.n += other.n
        self.total += other.total
        if self.minimum is None or other.minimum < self.minimum:
            self.minimum = other.minimum
        if self.maximum is None or other.maximum > self.maximum:
            self.maximum = other.maximum
        for i, c in other.buckets.items():
            self.buckets[i] = self.buckets.get(i, 0) + c
        return self

    @classmethod
    def from_dict(cls, d: dict) -> "DwellHistogram":
        """Rebuild a histogram from :meth:`as_dict` output (rank bodies
        return their histograms as plain dicts)."""
        h = cls()
        h.n = d["n"]
        h.total = d["total_s"]
        if h.n:
            h.minimum = d["min_s"]
            h.maximum = d["max_s"]
        for lo_ns, count in d["buckets"]:
            h.buckets[0 if lo_ns == 0 else int(lo_ns).bit_length()] = count
        return h

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "total_s": self.total,
            "mean_s": self.mean,
            "min_s": 0.0 if self.minimum is None else self.minimum,
            "max_s": 0.0 if self.maximum is None else self.maximum,
            "p50_s": self.percentile(50),
            "p95_s": self.percentile(95),
            "p99_s": self.percentile(99),
            "p999_s": self.percentile(99.9),
            # [lower bound of bucket in ns, count], ascending
            "buckets": [
                [0 if i == 0 else 1 << (i - 1), self.buckets[i]] for i in sorted(self.buckets)
            ],
        }


class RankMetrics:
    """All observability state of one rank.  Created via :meth:`Metrics.rank`."""

    #: combined queue-depth samples kept before deterministic decimation
    MAX_QUEUE_SAMPLES = 1 << 16

    def __init__(self, rank: int):
        self.rank = rank
        # -- queue-depth time series: (t, defQ, actQ, compQ, staged) --------
        self.queue_samples: List[Tuple[float, int, int, int, int]] = []
        self._sample_stride = 1
        self._sample_seq = 0
        # -- per-op-kind dwell histograms: (kind, transition) -> histogram --
        self.dwell: Dict[Tuple[str, str], DwellHistogram] = {}
        # -- per-kind op/byte totals (counted at injection) ------------------
        self.op_counts: Dict[str, int] = {}
        self.op_bytes: Dict[str, int] = {}
        #: compQ items executed, per kind
        self.executed: Dict[str, int] = {}
        # -- attentiveness ---------------------------------------------------
        self.n_user_progress = 0
        self._last_progress: Optional[float] = None
        self.progress_gap = DwellHistogram()
        self.max_gap = 0.0
        self.max_gap_at = 0.0
        # -- AM inbox dwell (arrival -> poll), per tag -----------------------
        self.inbox_dwell: Dict[str, DwellHistogram] = {}
        # -- NIC injection accounting (filled by the conduit) ----------------
        self.nic_injections = 0
        self.nic_bytes = 0
        self.nic_occupancy = 0.0
        self.nic_backpressure = 0.0
        # -- reliability layer (fault injection; attributed to initiator) ----
        self.rel_retransmits = 0
        self.rel_dropped = 0
        self.rel_duplicated = 0
        self.rel_acks = 0

    # ------------------------------------------------------------- recording
    def sample_queues(self, t: float, defq: int, actq: int, compq: int, staged: int) -> None:
        """Record one combined queue-depth sample (rank context).

        Consecutive identical depth vectors are deduplicated; when the
        series hits :data:`MAX_QUEUE_SAMPLES` it is decimated by keeping
        every other sample and the sampling stride doubles — deterministic,
        bounded memory for arbitrarily long runs.
        """
        self._sample_seq += 1
        if self._sample_seq % self._sample_stride:
            return
        samples = self.queue_samples
        if samples and samples[-1][1:] == (defq, actq, compq, staged):
            return
        samples.append((t, defq, actq, compq, staged))
        if len(samples) >= self.MAX_QUEUE_SAMPLES:
            del samples[1::2]
            self._sample_stride *= 2

    def dwell_hist(self, kind: str, transition: str) -> DwellHistogram:
        h = self.dwell.get((kind, transition))
        if h is None:
            h = self.dwell[(kind, transition)] = DwellHistogram()
        return h

    def op_injected(self, kind: str, nbytes: int, deferred_dwell: float) -> None:
        """An operation left defQ and was handed to the conduit."""
        self.op_counts[kind] = self.op_counts.get(kind, 0) + 1
        self.op_bytes[kind] = self.op_bytes.get(kind, 0) + nbytes
        self.dwell_hist(kind, "deferred_to_active").add(deferred_dwell)

    def op_executed(self, item, now: float) -> None:
        """A compQ item ran during user progress (rank context, time ``now``)."""
        kind = item.kind
        self.executed[kind] = self.executed.get(kind, 0) + 1
        t_staged = item.t_staged
        if t_staged is not None:
            if item.t_active is not None:
                self.dwell_hist(kind, "active_to_complete").add(t_staged - item.t_active)
            self.dwell_hist(kind, "complete_to_fulfilled").add(now - t_staged)

    def user_progress(self, now: float) -> None:
        """A user-level ``progress()`` call began at simulated time ``now``."""
        self.n_user_progress += 1
        if self._last_progress is not None:
            gap = now - self._last_progress
            self.progress_gap.add(gap)
            if gap > self.max_gap:
                self.max_gap = gap
                self.max_gap_at = now
        self._last_progress = now

    def user_progress_done(self, now: float) -> None:
        """The same ``progress()`` call finished draining compQ at ``now``."""
        self._last_progress = now

    def am_polled(self, tag: str, dwell: float) -> None:
        """An AM was polled from the inbox ``dwell`` seconds after arrival."""
        h = self.inbox_dwell.get(tag)
        if h is None:
            h = self.inbox_dwell[tag] = DwellHistogram()
        h.add(dwell)

    def nic_injected(self, nbytes: int, occupancy: float, backpressure: float) -> None:
        """The conduit injected one message from this rank's NIC."""
        self.nic_injections += 1
        self.nic_bytes += nbytes
        self.nic_occupancy += occupancy
        self.nic_backpressure += backpressure

    def rel_update(self, retransmits: int, dropped: int, duplicated: int, acks: int) -> None:
        """One reliable-channel ladder finished for an op this rank sent."""
        self.rel_retransmits += retransmits
        self.rel_dropped += dropped
        self.rel_duplicated += duplicated
        self.rel_acks += acks

    # --------------------------------------------------------------- export
    def queue_series(self) -> Dict[str, List[List[float]]]:
        """Per-queue depth series, deduplicated per queue."""
        out: Dict[str, List[List[float]]] = {}
        for qi, name in enumerate(QUEUE_NAMES, start=1):
            series: List[List[float]] = []
            for sample in self.queue_samples:
                depth = sample[qi]
                if series and series[-1][1] == depth:
                    continue
                series.append([sample[0], depth])
            out[name] = series
        return out

    def as_dict(self) -> dict:
        kinds = sorted(set(self.op_counts) | set(self.executed))
        return {
            "rank": self.rank,
            "queues": self.queue_series(),
            "dwell": {
                kind: {
                    tr: self.dwell[(kind, tr)].as_dict()
                    for tr in TRANSITIONS
                    if (kind, tr) in self.dwell
                }
                for kind in sorted({k for k, _ in self.dwell})
            },
            "ops": {
                kind: {
                    "injected": self.op_counts.get(kind, 0),
                    "bytes": self.op_bytes.get(kind, 0),
                    "executed": self.executed.get(kind, 0),
                }
                for kind in kinds
            },
            "attentiveness": {
                "n_user_progress": self.n_user_progress,
                "max_gap_s": self.max_gap,
                "max_gap_at_s": self.max_gap_at,
                "gap": self.progress_gap.as_dict(),
            },
            "inbox_dwell": {tag: h.as_dict() for tag, h in sorted(self.inbox_dwell.items())},
            "nic": {
                "injections": self.nic_injections,
                "bytes": self.nic_bytes,
                "occupancy_s": self.nic_occupancy,
                "backpressure_s": self.nic_backpressure,
            },
            "reliability": {
                "retransmits": self.rel_retransmits,
                "frames_dropped": self.rel_dropped,
                "frames_duplicated": self.rel_duplicated,
                "acks": self.rel_acks,
            },
        }


class Metrics:
    """Job-wide op-lifecycle metrics; pass to ``upcxx.run_spmd(metrics=...)``.

    ``enabled=False`` turns every hook into a no-op (the instrumented
    layers see ``None`` and skip recording entirely).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._ranks: Dict[int, RankMetrics] = {}

    def rank(self, rank: int) -> RankMetrics:
        rm = self._ranks.get(rank)
        if rm is None:
            rm = self._ranks[rank] = RankMetrics(rank)
        return rm

    @property
    def ranks(self) -> List[RankMetrics]:
        return [self._ranks[r] for r in sorted(self._ranks)]

    def max_attentiveness_gap(self) -> float:
        """The worst progress gap observed on any rank (seconds)."""
        return max((rm.max_gap for rm in self._ranks.values()), default=0.0)

    def as_dict(self) -> dict:
        return {
            "n_ranks": len(self._ranks),
            "max_attentiveness_gap_s": self.max_attentiveness_gap(),
            "ranks": [rm.as_dict() for rm in self.ranks],
        }
