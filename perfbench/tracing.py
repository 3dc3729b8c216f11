"""Span tracing from outside the program.

The benchmark wraps the calls a workload body makes into each layer and
stamps ``perf_counter_ns`` at entry and exit.  Stamps are kept in memory
and analysed (or written as a Chrome trace) after the repetition.

Exactly one rank holds the scheduler's baton at any instant, so the global
stamp sequence tiles the wall clock: the interval after an *enter X* is
spent in X, the interval after an *exit* in that thread's enclosing span.
Each rank is its own OS thread, so the thread id tells the ranks apart.
When the two stamps around an interval come from different ranks the baton
changed hands somewhere inside it, at a point only in-program tracing
could see; the whole interval still goes to the state the first rank was
left in.

Span kinds (one bucket of host time each):

``launch``  ``run_spmd``/``run_mpi`` itself: segments, rank threads, join.
            Its first argument, the rank body, becomes an ``app`` span.
``app``     application code: the rank body and app-layer calls.
``inject``  non-blocking API calls, conduit inject included.
``wait``    blocking calls: progress engine, scheduler dispatch and the
            event callbacks that run while a rank is parked.
"""

from __future__ import annotations

import json
from threading import get_ident
from time import perf_counter_ns

KINDS = ("launch", "app", "inject", "wait")


class Tracer:
    def __init__(self):
        #: (t_ns, thread id, code): code indexes ``names`` on entry, -1 on exit
        self.stamps: list = []
        #: code -> (span name, kind)
        self.names: list = []
        self._patched: list = []

    def wrap(self, fn, name: str, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown span kind {kind!r}")
        code = len(self.names)
        self.names.append((name, kind))
        stamp = self.stamps.append

        def traced(*args, **kwargs):
            stamp((perf_counter_ns(), get_ident(), code))
            try:
                return fn(*args, **kwargs)
            finally:
                stamp((perf_counter_ns(), get_ident(), -1))

        if kind != "launch":
            return traced
        wrap = self.wrap

        def launch(body, *args, **kwargs):
            return traced(wrap(body, "rank.body", "app"), *args, **kwargs)

        return launch

    def install(self, points) -> None:
        """Patch every ``(owner, attribute, span name, kind)`` point."""
        for owner, attr, name, kind in points:
            original = getattr(owner, attr)
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, kind))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ---------------------------------------------------------------- analysis
    def analyse(self, breaks=()) -> dict:
        """Tile the stamp sequence into host seconds per span kind.

        ``breaks`` are host times (ns) across which no interval is counted:
        the untimed gaps between a repetition's timed windows.

        ``spans`` rows are ``[code, lane, t0_ns, t1_ns, parent row, op]``:
        a top-level span opens op ``(lane, n)``; nested spans inherit it.
        """
        names = self.names
        by_kind = dict.fromkeys(KINDS, 0)
        spans: list = []
        stacks: dict = {}  # thread id -> open span rows
        lanes: dict = {}   # thread id -> lane number by first appearance
        n_ops: dict = {}
        breaks = sorted(breaks, reverse=True)
        prev_t = None
        state = "launch"  # the state the previous stamp left its thread in
        for t, tid, code in self.stamps:
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks[tid] = []
                lanes[tid] = len(lanes)
            while breaks and breaks[-1] <= t:
                breaks.pop()
                prev_t = None
            if prev_t is not None:
                by_kind[state] += t - prev_t
            prev_t = t
            if code >= 0:
                if not stack:
                    n_ops[tid] = n_ops.get(tid, 0) + 1
                parent = stack[-1] if stack else -1
                stack.append(len(spans))
                spans.append([code, lanes[tid], t, t, parent, n_ops[tid]])
                state = names[code][1]
            else:
                spans[stack.pop()][3] = t
                state = names[spans[stack[-1]][0]][1] if stack else "launch"
        return {"by_kind_s": {k: v * 1e-9 for k, v in by_kind.items()}, "spans": spans}

    def write_chrome_trace(self, path: str, spans) -> None:
        """One complete ("X") event per span, one lane per rank thread."""
        t_base = self.stamps[0][0] if self.stamps else 0
        events = []
        for row, (code, lane, t0, t1, parent, op) in enumerate(spans):
            name, kind = self.names[code]
            events.append({
                "name": name, "cat": kind, "ph": "X", "pid": 0, "tid": lane,
                "ts": (t0 - t_base) / 1e3, "dur": (t1 - t0) / 1e3,
                "args": {"span": row, "parent": parent, "op": f"{lane}.{op}"},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, fh)
