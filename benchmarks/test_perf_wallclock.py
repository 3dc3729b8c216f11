"""Instrumentation-overhead ceilings: what each optional observer costs.

How fast the simulator itself runs is ``perfbench/``'s job, not this
file's.  What is checked here is what each optional observer *adds* to a
run's wall clock, measured as an interleaved A/B inside one process (see
:func:`_paired_overhead`) and asserted directly; nothing is written to
disk.  CI runs this file in its ``kv-smoke`` job.

Each ceiling is a ratio with no absolute cushion, so it binds: every arm
runs for a few tenths of a second (``ROUNDS`` repetitions of the body
inside one job), and a ceiling sits a margin above the overhead measured
when it was set.
"""

import time

import numpy as np

import repro.upcxx as upcxx

#: repetitions of a workload's loop inside one job: enough that an arm
#: takes ~0.3 s, far longer than scheduler jitter
ROUNDS = 8


def _paired_overhead(once, on_arg, n_pairs=11):
    """Interleaved A/B overhead: the median of per-pair ratios, minus one.

    Shared/capped runners exhibit *multiplicative, slowly-varying* noise
    (frequency scaling, cgroup throttling): identical runs vary by tens of
    percent, and process-CPU time scales with them, so there is no
    noise-free clock to fall back on.  A base run and an instrumented run
    back to back share one noise window, so their ratio is an honest
    overhead estimate; the median over ``n_pairs`` such pairs, run in
    alternating order (ABBA) so slow drift cancels, discards the pairs a
    throttle transition corrupted.  The old estimator, the single pair
    with the smallest combined wall time, spread 0–41 % over repeated
    runs of one tree; this one 8–15 %.

    Returns ``(overhead, base_res, with_res)``: simulated results are
    deterministic, so any repeat's results are representative.
    """
    import gc
    import statistics

    def timed(arg):
        t0 = time.perf_counter()
        res = once(arg)
        return time.perf_counter() - t0, res

    ratios = []
    gc.disable()
    try:
        once(None)  # warm-up (imports, code objects)
        for i in range(n_pairs):
            if i % 2:
                tw, with_res = timed(on_arg)
                tb, base_res = timed(None)
            else:
                tb, base_res = timed(None)
                tw, with_res = timed(on_arg)
            ratios.append(tw / tb)
    finally:
        gc.enable()
    return statistics.median(ratios) - 1.0, base_res, with_res


def _rpc_body():
    # Fig. 4a-style RPC round-trips
    me = upcxx.rank_me()
    n = upcxx.rank_n()
    upcxx.barrier()
    acc = 0
    for i in range(24 * ROUNDS):
        acc += upcxx.rpc((me + i + 1) % n, lambda a, b: a + b, me, i).wait()
    upcxx.barrier()
    return (acc, upcxx.sim_now())


def _mixed_body():
    # Fig. 3a-style blocking rput chain + Fig. 4a-style RPC round-trips
    me = upcxx.rank_me()
    n = upcxx.rank_n()
    landing = upcxx.new_array(np.uint8, 512)
    dest = upcxx.broadcast(landing, root=1).wait()
    upcxx.barrier()
    acc = 0
    for _ in range(ROUNDS):
        if me == 0:
            payload = bytes(512)
            for _ in range(60):
                upcxx.rput(payload, dest).wait()
        for i in range(24):
            acc += upcxx.rpc((me + i + 1) % n, lambda a, b: a + b, me, i).wait()
    upcxx.barrier()
    return (acc, upcxx.sim_now())


#: overhead ceilings, each a margin above the median-of-pairs overhead
#: measured when it was set: 7–14 % for spans, 5–16 % for an armed
#: zero-rate fault plan (twelve runs each, 2 cpus, pinned); 2–17 %, median
#: 8 %, for telemetry once it stopped watching per-op boundaries (twelve
#: runs, 2 cpus, pinned); an observer made several times costlier reads
#: 28–66 % and fails
SPANS_CEILING = 0.20
RELIABILITY_CEILING = 0.20
TELEMETRY_CEILING = 0.20


def test_span_tracing_overhead_ceiling():
    """Span tracing on an RPC workload (32 ranks) stays under its ceiling.
    Tracing is passive: simulated results are bit-identical with it on."""
    from repro.util.spans import SpanBuffer

    spans = SpanBuffer()

    def once(arg):
        return upcxx.run_spmd(_rpc_body, 32, ppn=8, seed=3, spans=arg)

    overhead, base_res, with_res = _paired_overhead(once, spans)
    assert with_res == base_res
    assert len(spans) > 0
    assert overhead < SPANS_CEILING, f"span tracing overhead {overhead:.1%}"


def test_reliable_delivery_bookkeeping_ceiling():
    """An armed zero-rate fault plan on rput chains + RPC round-trips stays
    under its ceiling.

    Measured conservatively: the *whole* reliability machinery armed
    (sequence numbers, retransmit-ladder evaluation, ack scheduling,
    channel state) vs faults disabled entirely.  A zero-rate plan is
    simulation-invisible: results are bit-identical between the arms.
    """
    from repro.sim.faults import FaultPlan

    def once(faults):
        return upcxx.run_spmd(_mixed_body, 16, ppn=8, seed=3, faults=faults)

    plan = FaultPlan(seed=1)  # armed, all rates zero
    overhead, base_res, with_res = _paired_overhead(once, plan)
    assert with_res == base_res
    assert overhead < RELIABILITY_CEILING, (
        f"reliable-delivery bookkeeping overhead {overhead:.1%}"
    )


def test_telemetry_overhead_ceiling():
    """Telemetry (windowed rollups, read at window edges only) on the same
    mixed rput/RPC workload stays under its ceiling.  Telemetry is passive:
    results are bit-identical with it on."""
    from repro.util import Telemetry

    last = {}

    def once(on):
        # fresh sink per run: rollup state must not accumulate across pairs
        tel = Telemetry() if on else None
        if on:
            last["tel"] = tel
        return upcxx.run_spmd(_mixed_body, 16, ppn=8, seed=3, telemetry=tel)

    overhead, base_res, with_res = _paired_overhead(once, True)
    assert with_res == base_res
    # rollups actually filled (the run is several windows long)
    assert all(len(rt.windows) > 0 for rt in last["tel"].ranks.values())
    assert overhead < TELEMETRY_CEILING, f"telemetry overhead {overhead:.1%}"
