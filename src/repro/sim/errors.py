"""Exception types raised by the simulation kernel."""

from __future__ import annotations


class SimError(RuntimeError):
    """Base class for simulator errors."""


class DeadlockError(SimError):
    """All ranks are blocked, the event queue is empty, yet ranks remain.

    The message lists every blocked rank with the reason it registered when
    it went to sleep, which is usually enough to find the missing
    ``progress()`` call or mismatched collective.
    """


class RankFailure(SimError):
    """User code on some rank raised an exception.

    The original exception is attached as ``__cause__`` and the failing rank
    id is available as :attr:`rank`.
    """

    def __init__(self, rank: int, message: str):
        super().__init__(f"rank {rank} failed: {message}")
        self.rank = rank


class RankDeadError(SimError):
    """A simulated rank crashed (fault injection) and was detected dead.

    Raised on surviving ranks once the heartbeat timeout expires.  The dead
    rank id is available as :attr:`rank`; the crash and detection times are
    embedded in the message so the verdict is reproducible bit-for-bit.
    """

    def __init__(self, rank: int, message: str):
        super().__init__(message)
        self.rank = rank


class RankCrashed(BaseException):
    """Internal control-flow exception unwinding a crashed rank's fiber.

    Raised from inside the crashed rank's own progress path when its
    simulated clock passes the fault plan's crash time.  Like
    :class:`SimAbort` it derives from ``BaseException`` so user ``except
    Exception`` blocks cannot resurrect a dead rank.
    """


class SimAbort(BaseException):
    """Internal control-flow exception used to unwind rank threads.

    Raised inside a rank thread when the simulation is being torn down
    because another rank failed or a deadlock was detected.  It derives from
    ``BaseException`` so that well-meaning ``except Exception`` blocks in
    user code cannot swallow it.
    """
