"""Active Messages: the conduit's AM record and per-rank inboxes.

An AM carries an opaque payload plus a client-layer handler tag from a
source to a destination rank.  The conduit appends arriving messages to the
destination's :class:`AMInbox` at wire-arrival time and wakes the rank;
the message's *handler runs only when the destination polls* (the paper's
attentiveness requirement — a rank buried in computation stalls incoming
RPCs).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional


class AMMessage:
    """One active message, from injection to the poll that takes it.

    Like :class:`~repro.gasnet.handle.Transfer` for a put, the message is
    the conduit's whole record of the AM: ``Conduit.am`` posts it *itself*
    as the callable of its arrival event (which lands it in ``dst``'s inbox
    and wakes ``dst``) and posts :meth:`injected` as its source-completion
    event.  A client layer may subclass it to carry its own per-message
    state on the same object (``repro.upcxx.rpc``).
    """

    __slots__ = ("src", "dst", "tag", "payload", "nbytes", "arrival", "wire", "conduit")

    def __init__(
        self,
        src: int,
        dst: int,
        tag: str,
        payload: Any,
        nbytes: int,
        arrival: float = 0.0,
    ):
        self.src = src
        self.dst = dst
        #: client-layer dispatch tag (e.g. "upcxx.rpc", "mpi.eager")
        self.tag = tag
        #: opaque payload object (already-serialized bytes or a token structure)
        self.payload = payload
        #: payload size in bytes as it traveled on the wire
        self.nbytes = nbytes
        #: simulated arrival time at the destination NIC
        self.arrival = arrival
        #: None, or a list the conduit appends the frame's junction times
        #: to (``Conduit._transmit``)
        self.wire = None

    def __call__(self) -> None:
        """The arrival event (network context): land in the inbox, wake ``dst``."""
        conduit = self.conduit
        dst = self.dst
        conduit.endpoints[dst].inbox.deliver(self)
        conduit.sched.wake(dst, self.arrival)

    def injected(self) -> None:
        """The source-completion event: the buffer is reusable.  A bare
        message has nothing to do then."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(src={self.src}, dst={self.dst}, tag={self.tag!r}, "
            f"nbytes={self.nbytes}, arrival={self.arrival})"
        )


class AMInbox:
    """A destination rank's queue of arrived-but-unprocessed AMs."""

    __slots__ = ("rank", "_queue", "n_received", "n_polled")

    def __init__(self, rank: int):
        self.rank = rank
        self._queue: deque = deque()
        self.n_received = 0
        self.n_polled = 0

    def deliver(self, msg: AMMessage) -> None:
        """Append an arrived message (network context)."""
        self._queue.append(msg)
        self.n_received += 1

    def poll(self, now: float) -> Optional[AMMessage]:
        """Pop the oldest message that has arrived by ``now`` (rank context).

        Arrival times are nondecreasing in the queue (FIFO wire per pair and
        global event ordering), so checking the head suffices.
        """
        if self._queue and self._queue[0].arrival <= now:
            self.n_polled += 1
            return self._queue.popleft()
        return None

    def __len__(self) -> int:
        return len(self._queue)

    def has_due(self, now: float) -> bool:
        """Whether a message is ready to be processed at time ``now``."""
        return bool(self._queue) and self._queue[0].arrival <= now
