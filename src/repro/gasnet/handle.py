"""The completion handle of a conduit put, get or remote atomic.

A :class:`Transfer` is GASNet's notification object and, at the same
time, everything the conduit keeps about the operation while it is in
flight: the one object is what the caller holds and what both of the
operation's events call.  The conduit marks it complete (in network
context) at the simulated instant the operation's completion condition
is met, and runs any attached callbacks.  Client layers attach callbacks
that move runtime bookkeeping forward (e.g. ``mpisim``'s window counts a
put down) and wake the owning rank if it is blocked in ``wait()``.

Callbacks run with the scheduler lock held — they must be cheap,
non-blocking, and must not execute user code.
"""

from __future__ import annotations

from typing import Callable, List, Optional


#: what a :class:`Transfer`'s next event does
PUT_COMMIT, GET_SERVICE, COMPLETE, ATOMIC_APPLY = range(4)


class Transfer:
    """One put, get or remote atomic, from injection to completion.

    The conduit posts the record *itself* as the callable of the
    operation's two events, and ``phase`` says which one is due:

    - a put's first event (``PUT_COMMIT`` at ``t_commit``) writes the
      payload into the target segment, runs a piggybacked ``remote_rpc``
      (:meth:`remote_cx` of the client's subclass) and posts the second
      (``COMPLETE`` at ``t_ack``) as its child; a get's first event
      (``GET_SERVICE``) has the target NIC read memory and stream the
      reply, and an atomic's (``ATOMIC_APPLY``) has it apply ``payload =
      (op, dtype, operands)`` and keep the prior value in ``data``; both
      then post the second the same way;
    - ``COMPLETE`` calls :meth:`complete`.

    Two events per operation, the second the child of the first, is part
    of the simulator's contract: it fixes every causal stamp downstream.
    A client layer may subclass the record to carry its own per-operation
    state on the same object (``repro.upcxx.rma``); the fields here are
    filled in by whoever creates it and read by ``Conduit.put``/``get``/
    ``atomic``.

    Each event names the rank whose state it touches (``dst`` for the
    first, ``src`` for ``COMPLETE``), so the scheduler may fire it ahead
    of its strict frontier (:mod:`repro.sim.coop`); a subclass whose
    events touch a third rank sets ``LOOKAHEAD`` False and names none.
    """

    LOOKAHEAD = True
    #: client work run at the target when a put's bytes land: a subclass
    #: that sets it has ``remote_cx()`` run it (None: nothing to run)
    remote_rpc = None

    __slots__ = (
        "done", "time_done", "_callbacks", "data", "conduit", "kind", "src", "dst",
        "dst_off", "nbytes", "payload", "path", "occ_scale", "wire", "seg",
        "phase", "t_commit", "t_ack",
    )

    def __init__(self, conduit, src, kind=None, dst=None, dst_off=None, nbytes=0,
                 payload=None, path=None, occ_scale=1.0):
        self.done = False
        self.time_done: Optional[float] = None
        #: allocated lazily: most records get zero or one callback
        self._callbacks: Optional[List[Callable[["Transfer"], None]]] = None
        #: the bytes a get fetched, or an atomic's prior value
        self.data = None
        self.conduit = conduit
        self.kind = kind
        self.src = src
        self.dst = dst
        self.dst_off = dst_off
        self.nbytes = nbytes
        #: a put's bytes, held until they are written
        self.payload = payload
        self.path = path
        self.occ_scale = occ_scale
        #: None, or a list the conduit appends each of the operation's
        #: frames' junction times to (``Conduit._transmit``)
        self.wire = None
        #: the memory at ``dst`` a put writes or a get reads (None: its
        #: host segment)
        self.seg = None

    @property
    def op(self) -> tuple:
        """The diagnostic label, built only when somebody asks."""
        return (self.kind, self.src, self.dst, self.nbytes)

    def on_complete(self, fn: Callable[["Transfer"], None]) -> None:
        """Attach a network-context callback; fires immediately if done."""
        if self.done:
            fn(self)
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    def complete(self, time: float, data=None) -> None:
        """Mark complete at simulated ``time`` (network context only)."""
        if self.done:
            raise RuntimeError(f"transfer {self.op!r} completed twice")
        self.done = True
        self.time_done = time
        if data is not None:
            self.data = data
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for fn in callbacks:
                fn(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"done@{self.time_done}" if self.done else "pending"
        return f"<Transfer {self.op} {state}>"

    def __call__(self) -> None:
        """The event body (network context)."""
        phase = self.phase
        if phase == COMPLETE:
            self.complete(self.t_ack)
            return
        conduit = self.conduit
        if phase == PUT_COMMIT:
            seg = self.seg
            if seg is None:
                seg = conduit.endpoints[self.dst].segment
            seg.write(self.dst_off, self.payload)
            self.payload = None
            if self.remote_rpc is not None:
                self.remote_cx()
        elif phase == GET_SERVICE:
            # the target NIC reads memory and streams the reply: no target
            # CPU is involved (true RDMA read)
            self.t_ack, self.data = conduit._get_reply(
                self.src, self.dst, self.dst_off, self.nbytes, self.path,
                self.occ_scale, self.t_commit, self.seg, self.wire,
            )
        else:
            # the target NIC applies the atomic, with no target CPU either
            self.data = conduit._atomic_apply(
                conduit.endpoints[self.dst].segment, self.dst_off, self.payload
            )
        # None: no ack or reply ever survives (the peer crashed); crash
        # detection, not this handle, unblocks the caller
        t_ack = self.t_ack
        if t_ack is not None:
            self.phase = COMPLETE
            conduit.sched.post_at(t_ack, self, self.src if self.LOOKAHEAD else None)
