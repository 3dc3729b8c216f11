"""Remote procedure calls: ``rpc`` and ``rpc_ff``.

An RPC ships a function and its serialized arguments to a target rank.
Progression matches the paper's Fig. 2: the injection is staged on the
initiator's defQ, handed to GASNet as an AM (actQ), and lands in the
*target's* compQ where it waits for the target's **user-level progress**
to execute.  A returning RPC sends its value back the same way, fulfilling
the initiator's future during the initiator's user progress.  One
:class:`RpcOp` record, built at the call and dropped once user progress has
run it, is the request (or the reply) in every one of those states.

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

from repro.gasnet.am import AMMessage
from repro.upcxx import serialization
from repro.upcxx.dist_object import DistObject
from repro.upcxx.errors import UpcxxError
from repro.upcxx.future import Future, Promise
from repro.upcxx.runtime import CompQItem, Runtime, current_runtime
from repro.upcxx.serialization import DistObjectRef
from repro.upcxx.view import View

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


#: argument types that never need translation or resolution: not a
#: DistObject/DistObjectRef/_FnRef, not callable, and not a container that
#: could hide one.  The hot RPC shapes are flat tuples of these, a
#: dist_object and perhaps a View.
_PASSTHROUGH_ARG_TYPES = frozenset(
    {int, float, str, bytes, bytearray, memoryview, bool, type(None), View}
)
#: the shipped-callables table of an RPC that ships none
_NO_FNS: tuple = ()


def _translate_args_out(args: tuple) -> Tuple[tuple, list, int]:
    """Initiator side, one pass: ``(wire args, shipped callables, View
    bytes)``.  DistObjects become wire references and callables
    :class:`_FnRef` placeholders; the View bytes move zero-copy, so the
    target does not pay to deserialize them.  Exact types first; anything
    else goes through the recursive walkers, so a dist_object or View
    nested in a list or dict is found too.
    """
    passthrough = _PASSTHROUGH_ARG_TYPES
    wire = []
    fns = _NO_FNS
    views = 0
    for a in args:
        t = type(a)
        if t is View:
            views += a.nbytes
        elif t is DistObject:
            a = a.ref()
        elif t not in passthrough:
            if fns is _NO_FNS:
                fns = []
            views += serialization.copy_free_bytes(a)
            a = _walk_out(a, fns)
        wire.append(a)
    return tuple(wire), fns, views


# The two walkers are module-level on purpose: a nested recursive ``walk``
# is a closure over itself — a cycle per call that pins ``rt`` (and through
# it the whole job) until a gc pass.
def _walk_out(a, fns: list):
    if isinstance(a, DistObject):
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


def _resolve_args_in(rt: Runtime, args: tuple, fns) -> list:
    """Target side, one pass: DistObjectRef tokens become the local
    representatives and _FnRef placeholders the shipped callables.

    Raises :class:`_UnresolvedDistObject` (deferring the RPC) if any named
    dist_object has not been constructed here yet.
    """
    passthrough = _PASSTHROUGH_ARG_TYPES
    return [a if type(a) in passthrough else _walk_in(a, rt, fns) for a in args]


def _walk_in(a, rt: Runtime, fns: list):
    if isinstance(a, _FnRef):
        return fns[a.index]
    if isinstance(a, DistObjectRef):
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


class RpcOp(AMMessage):
    """One ``rpc``/``rpc_ff`` request or its reply, in one object.

    The conduit's :class:`~repro.gasnet.am.AMMessage` carries the wire
    half and this the runtime half, as :class:`~repro.upcxx.rma.RmaOp`
    does for a put: the record is in turn the **defQ** entry
    (:meth:`inject`), the **actQ** entry (``str()``), the callable of its
    two conduit events, the inbox message and the **compQ** item
    (``cost``, :meth:`fn`, the ``t_*`` stamps, ``sid``).

    A request's ``payload`` is its packed arguments and ``body`` the
    function; a reply's ``payload`` is the packed return values and its
    ``body`` None.  ``token`` routes the reply (None: ``rpc_ff``).  ``rt``
    sends the record and ``trt``, set by the drain that polls it, runs it.
    ``sid``/``t_api`` open its ``inject_sw`` span; ``parent`` links a
    reply to its request.
    """

    __slots__ = (
        "rt", "trt", "kind", "body", "fns", "token", "sid", "parent", "opid",
        "cost", "t_api", "t_enq", "t_active", "t_staged", "t_polled",
    )

    def __init__(self, rt, dst, tag, kind, payload, nbytes, cost, body, fns, token, sid,
                 t_api, parent) -> None:
        # one frame, as RmaOp's: AMMessage.__init__ is not called, and the
        # conduit sets ``conduit``/``arrival`` when it injects the message
        self.rt = rt
        self.src = rt.rank
        self.dst = dst
        self.tag = tag
        self.kind = kind
        self.payload = payload
        self.nbytes = nbytes
        self.cost = cost
        self.body = body
        self.fns = fns
        self.token = token
        self.sid = sid
        self.t_api = t_api
        self.parent = parent
        self.t_polled = self.wire = None

    def inject(self) -> None:
        """defQ -> actQ (internal progress): hand the message to the conduit."""
        rt = self.rt
        self.opid = opid = rt.next_op_id()
        rt.actQ[opid] = self
        self.t_active = now = rt.sched.now()
        rt.conduit.am(self, now)

    def injected(self) -> None:
        """Network context at the sender: the message left the NIC."""
        self.rt.actQ.pop(self.opid, None)

    def fn(self) -> None:
        """The compQ body (the target's user progress)."""
        if self.body is not None:
            _execute_rpc_body(self)
            return
        promise = self.trt.reply_table.pop(self.token, None)
        if promise is None:
            raise UpcxxError(f"orphan rpc reply token {self.token}")
        promise.fulfill_result(*serialization.unpack(self.payload))

    def __str__(self) -> str:
        return str((self.tag, self.dst, self.nbytes))


def _request(target: int, fn: Callable, args: tuple, want_reply: bool) -> Optional[Promise]:
    """Ship ``fn(*args)`` to ``target``; the reply's promise if one is wanted."""
    rt = current_runtime()
    if not 0 <= target < rt.world.n_ranks:
        name = "rpc" if want_reply else "rpc_ff"
        raise UpcxxError(f"{name} target {target} out of range [0, {rt.world.n_ranks})")
    rt.n_rpcs_sent += 1
    sid = t_api = None
    if rt.spans is not None:
        sid, t_api = rt.next_span_sid(), rt.now()
    wire_args, fns, view_bytes = _translate_args_out(args)
    raw = serialization.pack(wire_args)
    nraw = len(raw)
    rt.sched.charge(rt._c_rpc_inject)
    rt.charge_copy(nraw)

    promise = token = None
    if want_reply:
        promise = Promise(rt)
        token = rt.next_token()
        rt.reply_table[token] = promise
    # every runtime of a job has the same cpu model, so the target's
    # dispatch charge can be priced here
    cost = rt._c_rpc_dispatch + rt.copy_time(nraw - view_bytes)
    # stage on defQ and run internal progress (Fig. 2 left side)
    rt.defer(RpcOp(rt, target, "upcxx.rpc", "rpc", raw, nraw + _ENVELOPE_BYTES, cost,
                   fn, fns, token, sid, t_api, None))
    rt.internal_progress()
    return promise


def rpc(target: int, fn: Callable, *args) -> Future:
    """Run ``fn(*args)`` on rank ``target``; future of its return value."""
    return _request(target, fn, args, True).get_future()


def rpc_ff(target: int, fn: Callable, *args) -> None:
    """Fire-and-forget RPC: no acknowledgment, nothing returned (``rpc_ff``)."""
    _request(target, fn, args, False)


# --------------------------------------------------------------- dispatchers
def _execute_rpc_body(op: RpcOp) -> None:
    """Run an incoming RPC request (rank context, inside user progress)."""
    rt = op.trt
    try:
        resolved = _resolve_args_in(rt, serialization.unpack(op.payload), op.fns)
    except _UnresolvedDistObject as ex:
        # defer until the local representative is constructed
        rt.dist_waiters.setdefault(ex.key, []).append(CompQItem(0.0, op.fn, "rpc-deferred"))
        return

    rt.n_rpcs_executed += 1
    result = op.body(*resolved)
    token = op.token
    if token is None:
        return
    if isinstance(result, Future):
        result._on_ready(lambda: _reply(rt, op.src, token, result._values, op.sid))
    else:
        _reply(rt, op.src, token, () if result is None else (result,), op.sid)


def _reply(rt: Runtime, reply_to: int, token, values: tuple, req_sid: Optional[tuple]) -> None:
    """Send an RPC's return values back to its initiator."""
    raw = serialization.pack(values)
    # the reply is a child operation, causally linked to the request
    sid = t_api = None
    if rt.spans is not None:
        sid, t_api = rt.next_span_sid(), rt.now()
    nraw = len(raw)
    rt.sched.charge(rt._c_rpc_reply_inject)
    rt.charge_copy(nraw)
    rt.defer(RpcOp(rt, reply_to, "upcxx.rpc_reply", "rpc_reply", raw, nraw + _ENVELOPE_BYTES,
                   rt._c_completion + rt.copy_time(nraw), None, None, token, sid, t_api, req_sid))
    rt.internal_progress()
