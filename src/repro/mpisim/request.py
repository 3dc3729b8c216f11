"""MPI request objects (nonblocking operation handles)."""

from __future__ import annotations

from typing import Any, Optional


class Request:
    """Handle for a nonblocking MPI operation (mpi4py-style).

    ``wait()`` spins the owning runtime's progress engine; for receive
    requests the received object is the return value of ``wait()``.
    """

    __slots__ = ("rt", "kind", "done", "value", "src", "tag", "nbytes")

    def __init__(self, rt, kind: str, src: Optional[int] = None, tag: Optional[int] = None):
        self.rt = rt
        self.kind = kind
        self.done = False
        self.value: Any = None
        self.src = src
        self.tag = tag
        self.nbytes = 0

    def complete(self, value=None) -> None:
        """Mark done (rank context, during progress).

        Charges the MPI request-completion bookkeeping cost."""
        self.rt.charge_sw(self.rt.costs.req_complete)
        self.done = True
        self.value = value

    def wait(self):
        """Block until complete; returns the received object (recv reqs)."""
        self.rt.wait_all([self])
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "pending"
        return f"<Request {self.kind} {state}>"
