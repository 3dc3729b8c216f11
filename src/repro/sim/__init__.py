"""Deterministic discrete-event simulation (DES) kernel.

This package provides the execution substrate everything else runs on:

- :mod:`repro.sim.engine` — a time-ordered event queue with deterministic
  tie-breaking.
- :mod:`repro.sim.coop` — the cooperative SPMD runtime: every simulated
  process (*rank*) runs user code on its own OS thread, but a conservative
  scheduler guarantees that exactly one rank executes at a time and that the
  executing entity (rank or network event) is always the one with the
  globally minimal simulated timestamp.  This makes runs bit-deterministic
  while letting user code be written in the natural blocking style of the
  paper (``fut.wait()``).
- :mod:`repro.sim.rng` — per-rank deterministic random streams.

Simulated time is a float in seconds.  Wall-clock time plays no role in any
measured quantity.
"""

from repro.sim.errors import SimError, DeadlockError, RankFailure, SimAbort
from repro.sim.engine import EventQueue
from repro.sim.coop import Scheduler, current_scheduler
from repro.sim.rng import RankRandom

__all__ = [
    "SimError",
    "DeadlockError",
    "RankFailure",
    "SimAbort",
    "EventQueue",
    "Scheduler",
    "current_scheduler",
    "RankRandom",
]
