"""Unit tests for the discrete-event queue."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import EventQueue


def test_empty_queue():
    q = EventQueue()
    assert q.stats == {"posted": 0, "fired": 0, "pending": 0}


def test_fifo_within_same_time():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(1.0, lambda i=i: order.append(i))
    while q.stats["pending"]:
        _, fn = q.pop()
        fn()
    assert order == list(range(10))


def test_time_ordering():
    q = EventQueue()
    fired = []
    q.push(3.0, lambda: fired.append(3))
    q.push(1.0, lambda: fired.append(1))
    q.push(2.0, lambda: fired.append(2))
    times = []
    while q.stats["pending"]:
        t, fn = q.pop()
        times.append(t)
        fn()
    assert fired == [1, 2, 3]
    assert times == [1.0, 2.0, 3.0]


def test_rejects_negative_and_nan_times():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(-1.0, lambda: None)
    with pytest.raises(ValueError):
        q.push(float("nan"), lambda: None)


def test_rejects_infinite_time():
    q = EventQueue()
    with pytest.raises(ValueError):
        q.push(float("inf"), lambda: None)
    assert q.stats["pending"] == 0


def test_rejects_non_callable_fn():
    q = EventQueue()
    with pytest.raises(TypeError):
        q.push(1.0, None)
    with pytest.raises(TypeError):
        q.push(1.0, "not-a-function")
    assert q.stats["pending"] == 0
    # rejected pushes must not count as posted
    assert q.stats["posted"] == 0


def test_account_fired_matches_pop_accounting():
    q = EventQueue()
    for i in range(4):
        q.push(float(i), lambda: None)
    q.pop()
    q.account_fired(2)  # batched drain bookkeeping (see coop.Scheduler._fire)
    assert q.stats["fired"] == 3


def test_stats_counters():
    q = EventQueue()
    for i in range(5):
        q.push(float(i), lambda: None)
    q.pop()
    q.pop()
    assert q.stats == {"posted": 5, "fired": 2, "pending": 3}


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=200))
def test_pop_order_is_nondecreasing(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while q.stats["pending"]:
        t, _ = q.pop()
        popped.append(t)
    assert popped == sorted(popped)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1000)), min_size=1, max_size=300))
def test_stable_for_equal_times(pairs):
    """Events at equal times fire in insertion order (stability)."""
    q = EventQueue()
    log = []
    for t, tag in pairs:
        q.push(float(t), lambda t=t, tag=tag: log.append((t, tag)))
    while q.stats["pending"]:
        _, fn = q.pop()
        fn()
    # stable sort of the input by time must equal the firing log
    expected = sorted(((float(t), tag) for t, tag in pairs), key=lambda p: p[0])
    assert [(t, tag) for t, tag in log] == [(t, tag) for t, tag in expected]
