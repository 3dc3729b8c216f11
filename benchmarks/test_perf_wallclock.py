"""Instrumentation-overhead ceilings: observers must stay (nearly) free.

How fast the simulator itself runs is ``perfbench/``'s job, not this
file's.  What is checked here is what each optional observer *adds* to a
run's wall clock — span tracing < 5 %, an armed zero-fault reliability
layer < 2 %, telemetry < 2 % — measured as an interleaved A/B inside one
process (see :func:`_calmest_pair`) and asserted directly; nothing is
written to disk.  CI runs this file in its ``kv-smoke`` job.
"""

import time

import numpy as np

import repro.upcxx as upcxx


def _calmest_pair(once, on_arg, n_pairs=7):
    """Interleaved A/B overhead measurement, robust to CPU throttling.

    Shared/capped runners exhibit *multiplicative, slowly-varying* noise
    (frequency scaling, cgroup throttling): identical runs vary up to
    10x wall clock, and process-CPU time scales with them — so there is
    no noise-free clock to fall back on.  Best-of-N per arm (the old
    estimator) breaks when the two arms' minima land in different
    throttle windows.  Instead, run base/instrumented *pairs* and judge
    the overhead inside the calmest window: the pair with the smallest
    combined wall time.  Within one calm pair both arms ran at the same
    clock, so their ratio is an honest overhead estimate; even under
    sustained throttling the ratio stays honest because both arms are
    slowed equally — only a throttle transition mid-pair corrupts a
    pair, and that pair then loses the min by construction.

    Returns ``(base_s, with_s, base_res, with_res)`` from the winning
    pair (simulated results are deterministic, so any repeat's results
    are representative).
    """
    import gc

    pairs = []
    gc.disable()
    try:
        once(None)  # warm-up (imports, code objects)
        for _ in range(n_pairs):
            tb, base_res = once(None)
            tw, with_res = once(on_arg)
            pairs.append((tb + tw, tb, tw, base_res, with_res))
    finally:
        gc.enable()
    _, base_s, with_s, base_res, with_res = min(pairs, key=lambda p: p[0])
    return base_s, with_s, base_res, with_res


def test_span_tracing_overhead_under_5pct():
    """Acceptance gate: span tracing enabled on a DHT-style RPC workload
    costs <5% wall clock vs disabled (plus a small absolute cushion so
    sub-100ms runs don't flake on scheduler jitter)."""
    from repro.util.spans import SpanBuffer

    def body():
        # long enough (~1.5s calm) that sub-second CPU-clock throttle
        # swings average out *within* each run — see _calmest_pair
        me = upcxx.rank_me()
        n = upcxx.rank_n()
        upcxx.barrier()
        acc = 0
        for i in range(24):
            acc += upcxx.rpc((me + i + 1) % n, lambda a, b: a + b, me, i).wait()
        upcxx.barrier()
        return (acc, upcxx.sim_now())

    spans = SpanBuffer()

    def once(arg):
        t0 = time.perf_counter()
        res = upcxx.run_spmd(body, 32, ppn=8, seed=3, spans=arg)
        return time.perf_counter() - t0, res

    base_s, with_s, base_res, with_res = _calmest_pair(once, spans)
    # tracing is passive: simulated results are untouched
    assert with_res == base_res
    assert len(spans) > 0
    assert with_s <= max(base_s * 1.05, base_s + 0.05), (
        f"span tracing overhead too high: {base_s:.3f}s -> {with_s:.3f}s"
    )


def _mixed_body():
    # Fig. 3a-style blocking rput chain + Fig. 4a-style RPC round-trips,
    # long enough that throttle swings average out within each run (see
    # _calmest_pair)
    me = upcxx.rank_me()
    n = upcxx.rank_n()
    landing = upcxx.new_array(np.uint8, 512)
    dest = upcxx.broadcast(landing, root=1).wait()
    upcxx.barrier()
    if me == 0:
        payload = bytes(512)
        for _ in range(60):
            upcxx.rput(payload, dest).wait()
    acc = 0
    for i in range(24):
        acc += upcxx.rpc((me + i + 1) % n, lambda a, b: a + b, me, i).wait()
    upcxx.barrier()
    return (acc, upcxx.sim_now())


def test_reliable_delivery_bookkeeping_under_2pct():
    """Reliable-delivery bookkeeping costs <2% wall clock on rput chains +
    RPC round-trips when no faults are injected.

    Measured conservatively: the *whole* reliability machinery armed with
    an all-zero-rate plan (sequence numbers, retransmit-ladder evaluation,
    ack scheduling, channel state) vs faults disabled entirely (where the
    per-op cost is one ``faults is None`` branch), with the same absolute
    cushion the span-tracing gate uses.  Simulated results must be
    bit-identical between the arms.
    """
    from repro.sim.faults import FaultPlan

    def once(faults):
        t0 = time.perf_counter()
        res = upcxx.run_spmd(_mixed_body, 16, ppn=8, seed=3, faults=faults)
        return time.perf_counter() - t0, res

    plan = FaultPlan(seed=1)  # armed, all rates zero
    base_s, with_s, base_res, with_res = _calmest_pair(once, plan)
    # a zero-fault plan must be simulation-invisible
    assert with_res == base_res
    assert with_s <= max(base_s * 1.02, base_s + 0.05), (
        f"reliable-delivery bookkeeping overhead too high: "
        f"{base_s:.3f}s -> {with_s:.3f}s"
    )


def test_telemetry_overhead_under_2pct():
    """Telemetry enabled (windowed rollups + flight recorder) costs <2%
    wall clock vs disabled on the same mixed rput/RPC workload.
    Telemetry is passive — results must be bit-identical with it on."""
    from repro.util import Telemetry

    last = {}

    def once(on):
        # fresh sink per run: rollup state must not accumulate across pairs
        tel = Telemetry() if on else None
        if on:
            last["tel"] = tel
        t0 = time.perf_counter()
        res = upcxx.run_spmd(_mixed_body, 16, ppn=8, seed=3, telemetry=tel)
        return time.perf_counter() - t0, res

    base_s, with_s, base_res, with_res = _calmest_pair(once, True)
    # telemetry is passive: simulated results are untouched
    assert with_res == base_res
    # rollups actually filled (the run is several windows long)
    assert all(len(rt.windows) > 0 for rt in last["tel"].ranks.values())
    assert with_s <= max(base_s * 1.02, base_s + 0.05), (
        f"telemetry overhead too high: {base_s:.3f}s -> {with_s:.3f}s"
    )
