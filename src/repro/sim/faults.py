"""Seeded fault injection for the deterministic simulator.

A :class:`FaultPlan` describes, from its *own* RNG stream (derived via
:func:`repro.sim.rng._derive_seed`, fully decoupled from the application
seed), a set of adversarial network conditions:

- **drops** — a payload or ack frame vanishes on the wire and must be
  retransmitted by the reliability layer in :mod:`repro.gasnet.conduit`;
- **duplicates** — a frame arrives more than once (masked by sequence
  numbers, counted in metrics);
- **jitter** — bounded extra wire latency per frame;
- **stalls** — transient per-NIC outage windows during which a rank's NIC
  cannot begin an injection;
- **crashes** — whole-rank death at a simulated time, detected by
  survivors through a heartbeat timeout and surfaced as
  :class:`repro.sim.errors.RankDeadError`.

Determinism is the hard requirement: every decision is a *pure function*
of ``(plan seed, stream name, src, dst, seq, attempt)`` — a stateless
hash, not a stateful generator — so the verdict of "was frame #3 of
channel 0→1 dropped on its second attempt?" is identical no matter who
asks, in which order, or how many times.  That is what lets the conduit
compute a whole retransmit ladder analytically at send time and still
reproduce the golden fingerprints.

Plans can be given programmatically (``run_spmd(faults=FaultPlan(...))``)
or as a spec string (``run_spmd(faults="seed=1,drop=0.2,crash=1@3e-4")`` or
the ``REPRO_FAULTS`` environment variable).
"""

from __future__ import annotations

import hashlib
import math
import os
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.sim.rng import RankRandom

FAULTS_ENV = "REPRO_FAULTS"

#: number of pre-sampled stall windows per rank (lazily materialized);
#: enough to cover any realistic run — beyond the last window the NIC is
#: considered permanently healthy again
_STALL_WINDOWS = 64

_TWO64 = float(2**64)

#: retransmit attempts after which a frame *and* its ack are forced
#: through, bounding every ladder (no-hang guarantee)
MAX_RETX = 10


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, immutable description of injected faults.

    Every value is checked at construction (spec strings come from
    outside input): ``drop`` and ``dup`` lie in [0, 1]; ``jitter``,
    ``stall_rate``, ``stall_s``, ``detect_timeout`` and every crash time
    are finite and >= 0, and every crash rank is >= 0.  A bad value
    raises :class:`ValueError` naming its field.

    Parameters
    ----------
    seed:
        Root of the plan's private RNG stream.  Two runs with the same
        plan are bit-identical; changing only ``seed`` reshuffles every
        fault decision without touching application RNG.
    drop:
        Probability that a payload frame is lost in transit.  Also the
        probability (on an independent stream) that an ack frame is lost.
    dup:
        Probability that a delivered frame arrives twice.
    jitter:
        Upper bound (seconds) of uniform extra wire latency per frame.
    stall_rate:
        Mean rate (events/second of simulated time) of transient NIC
        outages per rank; ``0`` disables stalls.
    stall_s:
        Duration (seconds) of each NIC outage window.
    crash:
        Mapping of rank id → simulated crash time.
    detect_timeout:
        Heartbeat timeout: survivors raise ``RankDeadError`` at
        ``crash_time + detect_timeout``.
    survivable:
        When True, a detected crash does **not** unwind the run: the
        scheduler records the death, fires registered death listeners
        (``Scheduler.on_rank_dead``) and wakes the survivors, which keep
        executing — the mode the replication/failover layer
        (:mod:`repro.upcxx.replication`) builds on.  Default False
        (fail-stop, the paper's semantics).
    """

    seed: int = 0
    drop: float = 0.0
    dup: float = 0.0
    jitter: float = 0.0
    stall_rate: float = 0.0
    stall_s: float = 0.0
    crash: Dict[int, float] = field(default_factory=dict)
    detect_timeout: float = 2e-5
    survivable: bool = False

    def __post_init__(self) -> None:
        for name in ("drop", "dup"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"fault plan {name}={p!r}: must be a probability in [0, 1]")
        for name in ("jitter", "stall_rate", "stall_s", "detect_timeout"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v)):
                raise ValueError(f"fault plan {name}={v!r}: must be finite and >= 0")
        for rank, t in self.crash.items():
            if rank < 0 or not (t >= 0.0 and math.isfinite(t)):
                raise ValueError(f"fault plan crash={rank}@{t!r}: the rank must be >= 0 "
                                 "and the time finite and >= 0")

    # ------------------------------------------------------------------
    # stateless fault decisions
    # ------------------------------------------------------------------
    def _u(self, stream: str, src: int, dst: int, seq: int, attempt: int) -> float:
        """Uniform [0,1) draw, a pure function of the frame's identity."""
        h = hashlib.blake2b(
            f"{self.seed}:{stream}:{src}:{dst}:{seq}:{attempt}".encode(),
            digest_size=8,
        ).digest()
        return int.from_bytes(h, "little") / _TWO64

    def drops_frame(self, src: int, dst: int, seq: int, attempt: int) -> bool:
        """Is this payload-frame transmission attempt lost?

        Forced ``False`` once ``attempt`` reaches :data:`MAX_RETX` so the
        retransmit ladder always terminates.
        """
        if self.drop <= 0.0 or attempt >= MAX_RETX:
            return False
        return self._u("drop", src, dst, seq, attempt) < self.drop

    def drops_ack(self, src: int, dst: int, seq: int, attempt: int) -> bool:
        """Is the ack for this delivered attempt lost on the way back?"""
        if self.drop <= 0.0 or attempt >= MAX_RETX:
            return False
        return self._u("ackdrop", src, dst, seq, attempt) < self.drop

    def duplicates(self, src: int, dst: int, seq: int, attempt: int) -> bool:
        """Does this delivered attempt arrive twice at the receiver?"""
        if self.dup <= 0.0:
            return False
        return self._u("dup", src, dst, seq, attempt) < self.dup

    def jitter_of(self, src: int, dst: int, seq: int, attempt: int) -> float:
        """Extra wire latency for this payload-frame attempt."""
        if self.jitter <= 0.0:
            return 0.0
        return self._u("jitter", src, dst, seq, attempt) * self.jitter

    def ack_jitter_of(self, src: int, dst: int, seq: int, attempt: int) -> float:
        """Extra wire latency for this attempt's ack frame."""
        if self.jitter <= 0.0:
            return 0.0
        return self._u("ackjit", src, dst, seq, attempt) * self.jitter

    # ------------------------------------------------------------------
    # NIC stall windows
    # ------------------------------------------------------------------
    def _stall_starts(self, rank: int) -> List[float]:
        cache = self.__dict__.setdefault("_stall_cache", {})
        starts = cache.get(rank)
        if starts is None:
            rng = RankRandom(self.seed, rank, "faults.stall")
            starts, t = [], 0.0
            for _ in range(_STALL_WINDOWS):
                t += rng.py.expovariate(self.stall_rate) + self.stall_s
                starts.append(t)
            cache[rank] = starts
        return starts

    def stall_until(self, rank: int, t: float) -> float:
        """Earliest time ≥ ``t`` at which ``rank``'s NIC can inject.

        If ``t`` falls inside a pre-sampled outage window the injection
        is pushed to the window's end; otherwise ``t`` is returned
        unchanged.
        """
        if self.stall_rate <= 0.0 or self.stall_s <= 0.0:
            return t
        starts = self._stall_starts(rank)
        i = bisect_right(starts, t) - 1
        if i >= 0 and t < starts[i] + self.stall_s:
            return starts[i] + self.stall_s
        return t

    # ------------------------------------------------------------------
    # crashes
    # ------------------------------------------------------------------
    @property
    def crashes(self) -> Dict[int, float]:
        return self.crash

    def crash_cutoff(self, rank: int) -> float:
        """Time after which frames addressed to ``rank`` are never
        delivered (``inf`` when the rank never crashes)."""
        return self.crash.get(rank, float("inf"))

    def dead_error(self, rank: int):
        """The :class:`RankDeadError` survivors raise for ``rank``'s death.

        Single construction point, so every survivor raises a
        byte-identical verdict.
        """
        from repro.sim.errors import RankDeadError

        t_die = self.crash[rank]
        return RankDeadError(
            rank,
            f"rank {rank} died at t={t_die!r} "
            f"(heartbeat timeout after {self.detect_timeout!r}s)",
        )

    # ------------------------------------------------------------------
    # retransmission policy
    # ------------------------------------------------------------------
    def rto_for(self, lat: float, ack_lat: float) -> float:
        """Retransmission timeout for a channel with the given one-way
        latencies.  The default covers a full round trip plus the worst
        jitter on both legs with 2x margin, so a fault-free frame is
        always acked before its first retransmit would fire."""
        return 2.0 * (lat + ack_lat + 2.0 * self.jitter)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def parse(spec: str) -> "FaultPlan":
        """Parse a comma-separated spec string.

        ``"seed=1,drop=0.25,dup=0.1,jitter=2e-6,stall=5000:1e-5,crash=1@3e-4+2@5e-4,detect=2e-5,survive=1"``
        """
        kw: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad fault spec item {item!r} (expected key=value)")
            key, _, value = item.partition("=")
            key = key.strip().lower()
            value = value.strip()
            if key == "seed":
                kw["seed"] = int(value)
            elif key == "drop":
                kw["drop"] = float(value)
            elif key == "dup":
                kw["dup"] = float(value)
            elif key == "jitter":
                kw["jitter"] = float(value)
            elif key == "stall":
                rate, _, dur = value.partition(":")
                kw["stall_rate"] = float(rate)
                kw["stall_s"] = float(dur) if dur else 1e-5
            elif key == "crash":
                crashes: Dict[int, float] = {}
                for entry in value.split("+"):
                    r, _, t = entry.partition("@")
                    crashes[int(r)] = float(t)
                kw["crash"] = crashes
            elif key == "detect":
                kw["detect_timeout"] = float(value)
            elif key == "survive":
                kw["survivable"] = bool(int(value))
            else:
                raise ValueError(f"unknown fault spec key {key!r}")
        return FaultPlan(**kw)

    @staticmethod
    def resolve(value: Union[None, str, "FaultPlan"]) -> Optional["FaultPlan"]:
        """Coerce the ``run_spmd(faults=...)`` argument to a plan.

        ``None`` falls back to the ``REPRO_FAULTS`` environment variable
        (itself optional), a string is parsed as a spec, and a plan passes
        through unchanged.
        """
        if value is None:
            env = os.environ.get(FAULTS_ENV, "").strip()
            if not env:
                return None
            value = env
        if isinstance(value, FaultPlan):
            return value
        if isinstance(value, str):
            return FaultPlan.parse(value)
        raise TypeError(f"cannot interpret faults={value!r} as a FaultPlan")


__all__ = ["FaultPlan", "FAULTS_ENV", "MAX_RETX"]
