"""v0.1 asyncs and data movement.

``async_task(rank, fn, *args, ack=event)`` is the old ``async(place)(...)``:
it ships a function for remote execution but **cannot return a value**;
completion is observable only through an explicitly managed event, which
costs an acknowledgment message.  Payload serialization predates views, so
argument bytes are copied at both ends.

``allocate_remote`` and ``copy_blocking`` reproduce the blocking remote
allocation + blocking RMA that the paper's §V-A identifies as the reason
the old DHT insert "incurs both a blocking remote allocation and a
blocking RMA, which negatively impact latency and overlap potential".
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

import repro.upcxx as upcxx
from repro.upcxx.global_ptr import GlobalPtr
from repro.upcxx_v01.events import Event, V01_EVENT_OVERHEAD


def _signal_back(token: int) -> None:
    """Internal: ack AM body, executed back at the initiator."""
    rt = upcxx.current_runtime()
    table = rt.__dict__.setdefault("_v01_acks", {})
    event = table.pop(token, None)
    if event is not None:
        event.signal(1)


def async_task(target: int, fn: Callable, *args, ack: Optional[Event] = None) -> None:
    """Ship ``fn(*args)`` to ``target`` (no return value — v0.1 semantics).

    With ``ack``, one count is registered on the event and signaled when
    the remote execution completed (a dedicated ack message).
    """
    rt = upcxx.current_runtime()
    rt.charge_sw(V01_EVENT_OVERHEAD)  # event/async registry bookkeeping
    if ack is None:
        upcxx.rpc_ff(target, _run_no_view, fn, list(args))
        return
    ack.incref(1)
    table = rt.__dict__.setdefault("_v01_acks", {})
    token = rt.next_token()
    table[token] = ack
    upcxx.rpc_ff(target, _run_then_ack, fn, list(args), rt.rank, token)


def _run_no_view(fn: Callable, args: list) -> None:
    """Remote body for a v0.1 async.

    v0.1 had no zero-copy views, but since the payload travels as plain
    (non-view) arguments, the RPC dispatch layer already charges the full
    deserialization copy; only the async-table bookkeeping is added here.
    """
    rt = upcxx.current_runtime()
    rt.charge_sw(V01_EVENT_OVERHEAD)
    fn(*args)


def _run_then_ack(fn: Callable, args: list, reply_to: int, token: int) -> None:
    _run_no_view(fn, args)
    upcxx.rpc_ff(reply_to, _signal_back, token)


def async_copy(src: GlobalPtr, dst: GlobalPtr, nbytes: int, ack: Optional[Event] = None) -> None:
    """v0.1 ``async_copy``: one-sided byte copy signaled through an event."""
    rt = upcxx.current_runtime()
    rt.charge_sw(V01_EVENT_OVERHEAD)
    if src.rank == rt.rank:
        data = rt.conduit.segment(src.rank).read(src.offset, nbytes)
        fut = upcxx.rput(data, dst.cast(np.uint8))
    elif dst.rank == rt.rank:
        fut = upcxx.rget(src.cast(np.uint8), count=nbytes).then(
            lambda arr: rt.conduit.segment(dst.rank).write(dst.offset, arr.tobytes())
        )
    else:
        raise ValueError("v0.1 async_copy requires a local endpoint")
    if ack is not None:
        ack.incref(1)
        fut.then(lambda *_: ack.signal(1))


def copy_blocking(src: GlobalPtr, dst: GlobalPtr, nbytes: int) -> None:
    """Blocking copy (the old DHT's value transfer)."""
    ev = Event()
    async_copy(src, dst, nbytes, ack=ev)
    ev.wait()


def _do_allocate(nbytes: int) -> GlobalPtr:
    return upcxx.allocate(nbytes)


def allocate_remote(target: int, nbytes: int) -> GlobalPtr:
    """Blocking remote allocation (v0.1 ``allocate(place, n)``).

    v0.1 async could not return values, so the runtime's remote allocate
    was a blocking round trip — exactly the §V-A latency cost.
    """
    rt = upcxx.current_runtime()
    rt.charge_sw(V01_EVENT_OVERHEAD)
    if target == rt.rank:
        return upcxx.allocate(nbytes)
    return upcxx.rpc(target, _do_allocate, nbytes).wait()
