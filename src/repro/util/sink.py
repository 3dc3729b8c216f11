"""The progress engine's observer interface: one per-rank sink per observer.

Every passive observer (``Metrics``, ``Telemetry``, ``TraceBuffer``,
``SpanBuffer``) hands rank ``r`` a :class:`Sink` through ``observer.rank(r)``.
A rank's :class:`~repro.upcxx.runtime.Runtime` keeps the tuple of its sinks
(empty when ``run_spmd`` received no observer) and their :class:`Hooks`,
which it tests once per boundary of the paper's §III progress engine: an
absent observer costs one test, a present one is called only where it
watches.

The boundaries, in the order a library call meets them (``rt`` is the
rank's runtime; times are its simulated clock, passed in, never read):

- ``enter(rt, now)``: a library call entered internal progress, due
  network events delivered;
- ``inject(rt, op, now)``: ``op`` leaves defQ for the conduit;
- ``poll(rt, msg, now)``: an active message was polled from the inbox;
- ``leave(rt, now)``: internal progress is done;
- ``progress_begin(rt, now)`` / ``progress_end(rt, now)``: user-level
  ``progress()`` began / drained compQ;
- ``execute(rt, item, now)``: a compQ item is about to run, its CPU
  charge applied;
- ``retire(rt, item, t_exec, now)``: its body returned; it began
  executing (charge included) at ``t_exec``;
- ``death(rt, t_die)``: the rank observed its own fail-stop crash;
- ``finish(rt, now)``: the rank's body returned normally.

A sink overrides the boundaries it watches and inherits no-ops for the
rest, which are never called.  Sinks are passive: they read rank state
and record, and never charge time, post events or touch another sink's
state.
"""

BOUNDARIES = ("enter", "inject", "poll", "leave", "progress_begin", "progress_end",
              "execute", "retire", "death", "finish")


def _ignore(self, *args) -> None:
    pass


class Hooks:
    """Per boundary, the bound methods of those ``sinks`` that watch it."""

    __slots__ = BOUNDARIES

    def __init__(self, sinks):
        for b in BOUNDARIES:
            setattr(self, b, tuple(getattr(s, b) for s in sinks if getattr(type(s), b) is not _ignore))


class Sink:
    """No-op observer of one rank's progress engine (module docstring)."""

    enter = inject = poll = leave = progress_begin = progress_end = _ignore
    execute = retire = death = finish = _ignore
