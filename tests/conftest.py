"""Shared test configuration.

Simulation-backed property tests legitimately take longer than hypothesis'
default 200 ms deadline (each example may spin up a scheduler with several
rank threads), so the deadline is disabled globally and example counts are
kept moderate.

The session pins itself to one CPU (below; child processes inherit it).
The terminal summary ends with the run's CPU split — user, sys and wall
seconds of this process and its children (subprocess tests) — and its
voluntary/involuntary context switches: a baton hand-off is one voluntary
switch, and involuntary ones near zero mean woken rank carriers are not
preempting their wakers (``repro.sim.coop``).  A
pure-Python simulator has no business in the kernel: when tier-1 last
spent more time there than in Python (26 s user / 81 s sys) every job was
zeroing ``ranks x 32 MiB`` of segment at launch.
``--fail-if-sys-exceeds-user`` (set by the CI tier-1 step) turns that
signature into a failure.
"""

import gc
import os
import resource
import time

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

_T0 = time.perf_counter()


# Pin the session to one of the CPUs it may run on.  The scheduler hands one
# baton between rank threads, so exactly one thread is ever runnable: a second
# core buys no parallelism and costs a cross-CPU wake on most hand-offs
# (perfbench's ``sim.unpinned_slowdown``; tier-1 measured 34.5 s wall
# unpinned, 18.3 s pinned).  Linux-only call; elsewhere the session runs
# unpinned.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


@pytest.fixture
def no_cycle_collector():
    """Run the test with the cyclic GC off (and nothing pending in it), so
    only reference counting can have freed what the test finds dead."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def pytest_addoption(parser):
    parser.addoption(
        "--fail-if-sys-exceeds-user",
        action="store_true",
        help="fail the run when it spent more CPU time in the kernel than in Python",
    )


def _usage():
    """(user s, sys s, voluntary, involuntary context switches) of this
    process plus its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + kids.ru_utime,
        me.ru_stime + kids.ru_stime,
        me.ru_nvcsw + kids.ru_nvcsw,
        me.ru_nivcsw + kids.ru_nivcsw,
    )


def _cpu_split():
    """(user, sys) CPU seconds of this process plus its reaped children."""
    return _usage()[:2]


def pytest_sessionfinish(session, exitstatus):
    user, sys_ = _cpu_split()
    if session.config.getoption("--fail-if-sys-exceeds-user") and sys_ > user and exitstatus == 0:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, config):
    user, sys_, nvcsw, nivcsw = _usage()
    wall = time.perf_counter() - _T0
    terminalreporter.write_line(
        f"cpu split: user {user:.1f} s, sys {sys_:.1f} s, wall {wall:.1f} s, "
        f"context switches {nvcsw} voluntary / {nivcsw} involuntary (self + children)"
    )
    if sys_ > user:
        terminalreporter.write_line(
            "sys > user: the suite is spending its time in the kernel, not in Python "
            "(page zeroing at job launch looked exactly like this)"
            + (" -- failing the run" if config.getoption("--fail-if-sys-exceeds-user") else ""),
            red=True,
        )
