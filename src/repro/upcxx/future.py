"""Futures and promises — the asynchrony backbone of UPC++ v1.0.

Semantics follow the paper's §II:

- A :class:`Promise` is the producer side: a dependency counter (starting
  at 1) plus an optional result tuple.  ``require_anonymous`` registers
  extra dependencies, ``fulfill_anonymous`` retires them,
  ``fulfill_result`` supplies values (retiring one dependency), and
  ``finalize`` retires the initial dependency and returns the future.
- A :class:`Future` is the consumer side: query ``ready()``, retrieve
  ``result()``, block in ``wait()`` (a spin loop around user progress),
  chain callbacks with ``then()``, and conjoin with :func:`when_all`.

Unlike ``std::future``, these manage asynchrony *within* a rank: they are
readied only during that rank's user-level progress (or directly by rank
code), never from another thread — exactly the paper's model.  Callbacks
attached via ``then()`` run inline as soon as their dependencies are
satisfied, which by construction happens inside user progress.

Value conventions (mirroring ``future<T...>``):

- an empty future carries ``()`` and its callbacks take no arguments;
- a single-value future carries ``(v,)`` and callbacks take ``v``;
- multi-value futures (from :func:`when_all`) unpack into callback args.

A ``then`` callback returning a :class:`Future` is flattened (the chained
future completes with the inner future's values), matching UPC++.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.upcxx.errors import UpcxxError


class Future:
    """Consumer handle for an asynchronous operation's values."""

    __slots__ = ("_ready", "_values", "_callbacks", "_rt")

    def __init__(self, rt=None):
        self._ready = False
        self._values: Tuple = ()
        #: lazily allocated — most futures never get a callback
        self._callbacks: Optional[List[Callable[[], None]]] = None
        self._rt = rt

    # ------------------------------------------------------------- queries
    def ready(self) -> bool:
        """Whether the values are available."""
        return self._ready

    def result(self):
        """The future's value (None / scalar / tuple by arity).

        Unlike UPC++ (where ``result()`` on a non-ready future is UB), this
        raises if not ready — fail fast beats undefined behavior.
        """
        if not self._ready:
            raise UpcxxError("Future.result() called before the future is ready")
        if len(self._values) == 0:
            return None
        if len(self._values) == 1:
            return self._values[0]
        return self._values

    # ------------------------------------------------------ completion side
    def _fulfill(self, values: Tuple) -> None:
        """Make the future ready (rank context only)."""
        if self._ready:
            raise UpcxxError("future fulfilled twice")
        self._ready = True
        self._values = tuple(values)
        callbacks, self._callbacks = self._callbacks, None
        if callbacks is not None:
            for cb in callbacks:
                cb()

    # ------------------------------------------------------------ chaining
    def _runtime(self):
        if self._rt is not None:
            return self._rt
        from repro.upcxx.runtime import current_runtime

        return current_runtime()

    def then(self, fn: Callable) -> "Future":
        """Chain ``fn`` onto this future; returns the future of its result.

        ``fn`` is invoked with this future's values unpacked.  If ``fn``
        returns a Future the chain is flattened.
        """
        rt = self._runtime()
        out = Future(rt)

        def run():
            rt.sched.charge(rt._c_then_dispatch)
            res = fn(*self._values)
            if isinstance(res, Future):
                res._on_ready(lambda: out._fulfill(res._values))
            elif res is None:
                out._fulfill(())
            else:
                out._fulfill((res,))

        self._on_ready(run)
        return out

    def _on_ready(self, cb: Callable[[], None]) -> None:
        if self._ready:
            cb()
        elif self._callbacks is None:
            self._callbacks = [cb]
        else:
            self._callbacks.append(cb)

    def wait(self):
        """Block until ready (spin loop around user progress); return result."""
        self._runtime().wait_quiet(self.ready, "upcxx::wait")
        return self.result()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._ready:
            return f"<Future ready {self._values!r}>"
        n = 0 if self._callbacks is None else len(self._callbacks)
        return f"<Future pending ({n} callbacks)>"


class Promise:
    """Producer handle: dependency counter + result slot.

    Created with one initial (unretired) dependency, like
    ``upcxx::promise``; ``finalize()`` retires it and returns the future.
    """

    __slots__ = ("_future", "_deps", "_finalized", "_results_set")

    def __init__(self, rt=None):
        self._future = Future(rt)
        self._deps = 1
        self._finalized = False
        self._results_set = False

    def require_anonymous(self, n: int) -> None:
        """Register ``n`` more dependencies."""
        if n < 0:
            raise ValueError(f"negative dependency count: {n}")
        if self._deps <= 0:
            raise UpcxxError("promise already satisfied; cannot add dependencies")
        self._deps += n

    def fulfill_anonymous(self, n: int) -> None:
        """Retire ``n`` dependencies; readies the future at zero."""
        if n < 0:
            raise ValueError(f"negative dependency count: {n}")
        self._retire(n)

    def fulfill_result(self, *values) -> None:
        """Supply the result values and retire one dependency."""
        if self._results_set:
            raise UpcxxError("promise result set twice")
        self._results_set = True
        self._future._values = tuple(values)  # staged; visible when ready
        self._retire(1)

    def finalize(self) -> Future:
        """Retire the initial dependency; returns the associated future."""
        if self._finalized:
            raise UpcxxError("promise finalized twice")
        self._finalized = True
        self._retire(1)
        return self._future

    def get_future(self) -> Future:
        """The future tied to this promise (without finalizing)."""
        return self._future

    def _retire(self, n: int) -> None:
        if n == 0:
            return
        if self._deps < n:
            raise UpcxxError(f"promise over-fulfilled: {self._deps} deps, retiring {n}")
        self._deps -= n
        if self._deps == 0:
            staged = self._future._values
            self._future._values = ()
            self._future._fulfill(staged)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Promise deps={self._deps} finalized={self._finalized}>"


def make_future(*values) -> Future:
    """A trivially ready future carrying ``values`` (``upcxx::make_future``)."""
    f = Future()
    f._ready = True
    f._values = tuple(values)
    return f


def when_all(*items) -> Future:
    """Conjoin futures (and plain values) into one future of all values.

    Mirrors ``upcxx::when_all``: readiness of the result is readiness of
    every input, and the result's value tuple is the concatenation of the
    inputs' values (plain values contribute themselves).
    """
    futures = [x for x in items if isinstance(x, Future)]
    out = Future(futures[0]._rt if futures else None)
    pending = sum(1 for f in futures if not f.ready())

    def gather() -> Tuple:
        vals: List[Any] = []
        for x in items:
            if isinstance(x, Future):
                vals.extend(x._values)
            else:
                vals.append(x)
        return tuple(vals)

    if pending == 0:
        out._ready = True
        out._values = gather()
        return out

    state = {"left": pending}

    def one_done():
        state["left"] -= 1
        if state["left"] == 0:
            out._fulfill(gather())

    for f in futures:
        if not f.ready():
            f._on_ready(one_done)
    return out


def to_future(x) -> Future:
    """Coerce: futures pass through, plain values become ready futures."""
    if isinstance(x, Future):
        return x
    return make_future(x)
