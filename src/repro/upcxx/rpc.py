"""Remote procedure calls: ``rpc`` and ``rpc_ff``.

An RPC ships a function and its serialized arguments to a target rank.
Progression matches the paper's Fig. 2: the injection is staged on the
initiator's defQ, handed to GASNet as an AM (actQ), and lands in the
*target's* compQ where it waits for the target's **user-level progress**
to execute.  A returning RPC sends its value back the same way, fulfilling
the initiator's future during the initiator's user progress.

Argument handling:

- :class:`~repro.upcxx.view.View` arguments serialize zero-copy on the
  target (a window into the network buffer);
- :class:`~repro.upcxx.dist_object.DistObject` arguments are translated to
  global ids on the wire and to the *target's local representative* on
  arrival; if the target has not constructed its representative yet, the
  RPC is deferred until it does (UPC++ semantics);
- an RPC body returning a :class:`Future` delays the reply until that
  future is ready, and the initiator's future yields the inner value.

In this in-process simulation, functions travel by reference: RPC bodies
must not rely on mutating captured initiator state (on a real machine they
could not), and the test suite's apps follow that rule.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from repro.upcxx import serialization
from repro.upcxx.errors import UpcxxError
from repro.upcxx.future import Future, Promise
from repro.upcxx.runtime import CompQItem, Runtime, current_runtime, register_am

#: wire overhead of an RPC envelope beyond the packed arguments
_ENVELOPE_BYTES = 48


class _FnRef:
    """Placeholder for a callable argument shipped by reference.

    Real UPC++ ships function pointers; in this in-process simulation,
    callables found in RPC arguments travel out-of-band (indexed into the
    envelope's function table) rather than through the byte serializer.
    """

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __reduce__(self):  # picklable so it can ride the byte stream
        return (_FnRef, (self.index,))


class _UnresolvedDistObject(Exception):
    """Raised during argument resolution when a dist_object id is unknown."""

    def __init__(self, key):
        super().__init__(f"dist_object {key} not yet constructed")
        self.key = key


#: late-bound DistObject class (import cycle: dist_object imports rpc)
_DistObject = None

#: argument types that never need translation or resolution: not a
#: DistObject/DistObjectRef/_FnRef, not callable, and not a container that
#: could hide one.  Arg tuples made only of these skip the recursive walk
#: on both sides of the wire (the hot RPC shapes are flat scalar tuples).
_PASSTHROUGH_ARG_TYPES = frozenset(
    {int, float, str, bytes, bytearray, memoryview, bool, type(None)}
)


def _translate_args_out(rt: Runtime, args: tuple) -> Tuple[tuple, list]:
    """Initiator side: replace DistObject arguments by wire references.

    Recurses through containers so dist_objects nested in lists/dicts
    (e.g. forwarded argument packs) are translated too.
    """
    passthrough = _PASSTHROUGH_ARG_TYPES
    for a in args:
        if type(a) not in passthrough:
            break
    else:
        return args, []
    global _DistObject
    if _DistObject is None:
        from repro.upcxx.dist_object import DistObject as _DistObject  # noqa: F811

    fns: list = []
    return tuple(_walk_out(a, fns) for a in args), fns


# The two walkers are module-level on purpose: a nested recursive ``walk``
# is a closure over itself — a cycle per call that pins ``rt`` (and through
# it the whole job) until a gc pass.
def _walk_out(a, fns: list):
    if isinstance(a, _DistObject):
        return a.ref()
    if callable(a) and not isinstance(a, type):
        fns.append(a)
        return _FnRef(len(fns) - 1)
    if isinstance(a, tuple):
        return tuple(_walk_out(x, fns) for x in a)
    if isinstance(a, list):
        return [_walk_out(x, fns) for x in a]
    if isinstance(a, dict):
        return {k: _walk_out(v, fns) for k, v in a.items()}
    return a


def _resolve_args_in(rt: Runtime, args: tuple, fns: list) -> tuple:
    """Target side: replace DistObjectRef tokens by local representatives
    and _FnRef placeholders by the shipped callables.

    Raises :class:`_UnresolvedDistObject` (deferring the RPC) if any named
    dist_object has not been constructed here yet.
    """
    passthrough = _PASSTHROUGH_ARG_TYPES
    for a in args:
        if type(a) not in passthrough:
            break
    else:
        return args

    return tuple(_walk_in(a, rt, fns) for a in args)


def _walk_in(a, rt: Runtime, fns: list):
    if isinstance(a, _FnRef):
        return fns[a.index]
    if isinstance(a, serialization.DistObjectRef):
        key = (a.team_uid, a.index)
        obj = rt.dist_objects.get(key)
        if obj is None:
            raise _UnresolvedDistObject(key)
        return obj
    if isinstance(a, tuple):
        return tuple(_walk_in(x, rt, fns) for x in a)
    if isinstance(a, list):
        return [_walk_in(x, rt, fns) for x in a]
    if isinstance(a, dict):
        return {k: _walk_in(v, rt, fns) for k, v in a.items()}
    return a


def _inject_am(
    rt: Runtime,
    target: int,
    tag: str,
    payload: dict,
    nbytes: int,
    sid: Optional[tuple] = None,
    t_api: float = 0.0,
    parent: Optional[tuple] = None,
) -> None:
    """Stage an AM on defQ and run internal progress (Fig. 2 left side).

    ``sid``/``t_api`` open the op's ``inject_sw`` span (minted by the
    caller *before* its injection charges); ``parent`` links a reply to
    the request that spawned it.
    """

    def injector():
        opid = rt.next_op_id()
        rt.actQ[opid] = (tag, target, nbytes)
        if sid is not None:
            rt.spans.record(t_api, rt.now(), rt.rank, sid, "inject_sw", tag[6:], nbytes, parent)
        handle = rt.conduit.am_send(rt.rank, target, tag, payload, nbytes=nbytes, span=sid)
        handle.on_complete(lambda h: rt.actQ.pop(opid, None))

    # metrics kind: the tag minus its "upcxx." namespace, so injection and
    # execution of the same op family share one name ("rpc", "rpc_reply")
    rt.enqueue_deferred(injector, kind=tag[6:], nbytes=nbytes)
    rt.internal_progress()


def _request(target: int, fn: Callable, args: tuple, want_reply: bool) -> Optional[Promise]:
    """Ship ``fn(*args)`` to ``target``; the reply's promise if one is wanted."""
    rt = current_runtime()
    if not 0 <= target < rt.world.n_ranks:
        name = "rpc" if want_reply else "rpc_ff"
        raise UpcxxError(f"{name} target {target} out of range [0, {rt.world.n_ranks})")
    rt.n_rpcs_sent += 1
    sid = None
    t_api = 0.0
    if rt.spans is not None:
        sid = rt.next_span_sid()
        t_api = rt.now()
    wire_args, fns = _translate_args_out(rt, args)
    raw = serialization.pack(wire_args)
    view_bytes = serialization.copy_free_bytes(args)
    nraw = len(raw)
    rt.sched.charge(rt._c_rpc_inject)
    rt.charge_copy(nraw)

    promise = token = None
    if want_reply:
        promise = Promise(rt)
        token = rt.next_token()
        rt.reply_table[token] = promise
    # envelope tuple: (fn, fns, raw, token, reply_to, copy_bytes)
    payload = (fn, fns, raw, token, rt.rank, nraw - view_bytes)
    _inject_am(rt, target, "upcxx.rpc", payload, nbytes=nraw + _ENVELOPE_BYTES,
               sid=sid, t_api=t_api)
    return promise


def rpc(target: int, fn: Callable, *args) -> Future:
    """Run ``fn(*args)`` on rank ``target``; future of its return value."""
    return _request(target, fn, args, True).get_future()


def rpc_ff(target: int, fn: Callable, *args) -> None:
    """Fire-and-forget RPC: no acknowledgment, nothing returned (``rpc_ff``)."""
    _request(target, fn, args, False)


# --------------------------------------------------------------- dispatchers
def _execute_rpc_body(rt: Runtime, payload: tuple, req_sid: Optional[tuple] = None) -> None:
    """Run an incoming RPC (rank context, inside user progress)."""
    fn, fns, raw, token, reply_to, _copy_bytes = payload
    args = serialization.unpack(raw)
    try:
        resolved = _resolve_args_in(rt, args, fns)
    except _UnresolvedDistObject as ex:
        # Defer until the local representative is constructed.
        item = CompQItem(0.0, lambda: _execute_rpc_body(rt, payload, req_sid), "rpc-deferred")
        rt.dist_waiters.setdefault(ex.key, []).append(item)
        return

    rt.n_rpcs_executed += 1
    result = fn(*resolved)
    if token is None:
        return

    def send_reply(values: tuple) -> None:
        reply_raw = serialization.pack(values)
        # the reply is a child operation, causally linked to the request
        rsid = None
        t_api = 0.0
        if rt.spans is not None:
            rsid = rt.next_span_sid()
            t_api = rt.now()
        rt.sched.charge(rt._c_rpc_reply_inject)
        rt.charge_copy(len(reply_raw))
        _inject_am(
            rt,
            reply_to,
            "upcxx.rpc_reply",
            (token, reply_raw),
            nbytes=len(reply_raw) + _ENVELOPE_BYTES,
            sid=rsid,
            t_api=t_api,
            parent=req_sid,
        )

    if isinstance(result, Future):
        result._on_ready(lambda: send_reply(result._values))
    elif result is None:
        send_reply(())
    else:
        send_reply((result,))


def _dispatch_rpc(rt: Runtime, msg) -> CompQItem:
    """Build the compQ item for an arrived RPC request."""
    payload = msg.payload
    meta = msg.meta
    req_sid = None if meta is None else meta.get("sid")
    cost = rt._c_rpc_dispatch + rt.copy_time(payload[5])
    return CompQItem.acquire(
        cost, lambda: _execute_rpc_body(rt, payload, req_sid), "rpc", nbytes=msg.nbytes
    )


def _dispatch_rpc_reply(rt: Runtime, msg) -> CompQItem:
    """Build the compQ item for an arrived RPC reply."""
    token, raw = msg.payload

    def run():
        promise = rt.reply_table.pop(token, None)
        if promise is None:
            raise UpcxxError(f"orphan rpc reply token {token}")
        values = serialization.unpack(raw)
        promise.fulfill_result(*values)

    cost = rt._c_completion + rt.copy_time(len(raw))
    return CompQItem.acquire(cost, run, "rpc_reply", nbytes=msg.nbytes)


register_am("upcxx.rpc", _dispatch_rpc)
register_am("upcxx.rpc_reply", _dispatch_rpc_reply)
