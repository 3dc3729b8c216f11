"""Smoke tests for the shipped examples + whole-stack determinism checks."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.upcxx as upcxx

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


#: every shipped example and the line it prints on success
EXAMPLE_RUNS = [
    ("quickstart.py", "quickstart finished."),
    ("dht_demo.py", "dht_demo finished."),
    ("extend_add_demo.py", "correctness vs dense serial reference: OK"),
    ("stencil_halo.py", "stencil_halo finished."),
    ("kmer_count.py", "kmer_count finished."),
    ("observability_demo.py", "observability_demo finished."),
    ("gpu_pipeline.py", "gpu_pipeline finished."),
]


def test_every_example_is_run():
    assert sorted(s for s, _ in EXAMPLE_RUNS) == sorted(p.name for p in EXAMPLES.glob("*.py"))


@pytest.mark.parametrize("script,expect", EXAMPLE_RUNS)
def test_example_runs(script, expect):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / script)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert expect in proc.stdout


class TestDeterminism:
    """The whole stack must be a pure function of (program, seed)."""

    @staticmethod
    def _dht_run(seed):
        from repro.apps.dht import DhtRmaLz

        def body():
            dht = DhtRmaLz()
            rng = upcxx.runtime_here().rng
            upcxx.barrier()
            for _ in range(10):
                dht.insert(rng.key64(), b"x" * 64).wait()
            upcxx.barrier()
            return upcxx.sim_now()

        return upcxx.run_spmd(body, 4, seed=seed)

    def test_same_seed_identical_times(self):
        assert self._dht_run(1) == self._dht_run(1)

    def test_different_seed_different_times(self):
        # different keys -> different targets -> different timings
        assert self._dht_run(1) != self._dht_run(2)

    def test_mixed_traffic_deterministic(self):
        def run():
            def body():
                me = upcxx.rank_me()
                n = upcxx.rank_n()
                g = upcxx.new_array(np.float64, 8)
                ptrs = [upcxx.broadcast(g, root=r).wait() for r in range(n)]
                upcxx.barrier()
                for i in range(5):
                    upcxx.rput(np.full(8, float(i)), ptrs[(me + i) % n]).wait()
                    upcxx.rpc((me + i) % n, lambda: None).wait()
                total = upcxx.reduce_all(me, "+").wait()
                upcxx.barrier()
                return (upcxx.sim_now(), total)

            return upcxx.run_spmd(body, 6)

        assert run() == run()

    def test_metrics_and_trace_export_byte_identical(self):
        """Two same-seed aggregating-DHT runs must serialize to the exact
        same metrics JSON and Perfetto trace JSON."""
        from repro.util.metrics import Metrics
        from repro.util.trace import TraceBuffer
        from repro.util.trace_export import dumps_chrome_trace, dumps_metrics

        def body():
            agg = upcxx.AggStore("+", batch_size=16)
            rng = upcxx.runtime_here().rng.spawn("dht-agg")
            upcxx.barrier()
            for _ in range(48):
                agg.update(rng.key64() % (1 << 12), 1)
            agg.quiesce()
            upcxx.barrier()
            return upcxx.sim_now()

        def run():
            metrics = Metrics()
            trace = TraceBuffer()
            times = upcxx.run_spmd(body, 4, seed=3, metrics=metrics, trace=trace)
            return times, dumps_metrics(metrics), dumps_chrome_trace(trace, metrics)

        r1, m1, t1 = run()
        r2, m2, t2 = run()
        assert r1 == r2
        assert m1 == m2
        assert t1 == t2

    def test_trace_fingerprint_stable(self):
        from repro.sim.coop import Scheduler, current_scheduler
        from repro.util.trace import TraceBuffer

        def run():
            trace = TraceBuffer()

            def body(r):
                s = current_scheduler()
                for _ in range(4):
                    s.sleep((r % 3 + 1) * 1e-6)
                return s.now()

            sched = Scheduler(8, trace=trace)
            sched.run(body)
            return trace.digest()

        assert run() == run()
