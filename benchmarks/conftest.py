"""Benchmark-suite configuration.

Every benchmark regenerates one of the paper's figures inside the
deterministic simulator.  pytest-benchmark measures the *wall-clock* cost
of running the simulation (useful for tracking harness performance); the
scientific output — the simulated-time series matching the paper's figure
— is printed, written under ``results/``, and attached to
``benchmark.extra_info``.
"""

import os

import pytest

# One baton, one runnable thread: a second core only adds cross-CPU wake
# latency (same discipline, same reason as tests/conftest.py and perfbench).
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@pytest.fixture
def run_once(benchmark):
    """Run a table-producing callable exactly once under pytest-benchmark."""

    def runner(fn):
        return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)

    return runner
