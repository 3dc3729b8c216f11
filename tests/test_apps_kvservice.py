"""Tests for repro.apps.kvservice — traffic model + served KV workload.

Pins the deterministic surface the benchmark relies on: reproducible
open-loop traffic (Poisson/bursty arrivals, Zipf skew, read/write mix),
service results and span fingerprints that reproduce the golden file,
open-loop sojourn-latency semantics, the per-op-RPC baseline path the
aggregation gate compares against, and the two simulated-time gates
(``kv_aggregation_vs_rpc``, ``kv_crash_availability``) themselves.
"""

import random

import pytest

import repro.upcxx as upcxx
from repro.apps.kvservice import KvService, TrafficModel, default_config, zipf_cdf
from repro.bench.kv_bench import run_kv
from tests import golden


# ------------------------------------------------------------------- traffic
class TestTrafficModel:
    def _model(self, seed, **kw):
        args = dict(rate=1e6, n_requests=500, read_fraction=0.8,
                    zipf_s=1.1, n_keys=256)
        args.update(kw)
        return TrafficModel(random.Random(seed), **args)

    def test_deterministic_per_seed(self):
        a = list(self._model(7).requests())
        b = list(self._model(7).requests())
        c = list(self._model(8).requests())
        assert a == b
        assert a != c
        assert len(a) == 500

    def test_arrivals_nondecreasing_and_positive_rate(self):
        reqs = list(self._model(3, burst_prob=0.05).requests())
        times = [t for t, _, _, _ in reqs]
        assert all(t1 >= t0 for t0, t1 in zip(times, times[1:]))
        assert times[0] > 0.0

    def test_poisson_mean_interarrival(self):
        reqs = list(self._model(5, n_requests=4000).requests())
        mean_gap = reqs[-1][0] / len(reqs)
        assert mean_gap == pytest.approx(1e-6, rel=0.1)

    def test_bursts_compress_interarrivals(self):
        calm = list(self._model(5, n_requests=4000, burst_prob=0.0).requests())
        bursty = list(self._model(5, n_requests=4000, burst_prob=0.2,
                                  burst_mult=8.0, burst_len=64).requests())
        assert bursty[-1][0] < calm[-1][0]  # same count, less elapsed time

    def test_zipf_skew_concentrates_on_hot_keys(self):
        m = self._model(11)
        draws = [m.draw_key() for _ in range(4000)]
        counts = {}
        for k in draws:
            counts[k] = counts.get(k, 0) + 1
        hottest = max(counts, key=counts.get)
        assert hottest == 0
        top16 = sum(counts.get(k, 0) for k in range(16)) / len(draws)
        assert top16 > 0.3

    def test_read_write_mix(self):
        reqs = list(self._model(2, read_fraction=0.75, n_requests=2000).requests())
        reads = sum(1 for _, op, _, _ in reqs if op == "get")
        assert reads / len(reqs) == pytest.approx(0.75, abs=0.05)
        # writes carry deterministic nonzero payloads
        assert all(v > 0 for _, op, _, v in reqs if op == "put")

    def test_validation(self):
        with pytest.raises(ValueError):
            self._model(1, rate=0.0)
        with pytest.raises(ValueError):
            self._model(1, read_fraction=1.5)
        with pytest.raises(ValueError):
            zipf_cdf(0, 1.1)

    def test_zipf_cdf_shape(self):
        cdf = zipf_cdf(16, 1.2)
        assert len(cdf) == 16
        assert cdf[-1] == 1.0
        assert all(b >= a for a, b in zip(cdf, cdf[1:]))


# ------------------------------------------------------------------- service
def _tiny_cfg(**overrides):
    cfg = default_config("tiny")
    cfg.update({"ranks": 4, "ppn": 2, "n_requests": 64, "n_keys": 64})
    cfg.update(overrides)
    return cfg


class TestKvService:
    def test_all_requests_complete(self):
        cfg = _tiny_cfg()
        res, _ = run_kv(cfg)
        total = sum(r["reads"] + r["writes"] for r in res)
        assert total == cfg["ranks"] * cfg["n_requests"]
        for r in res:
            assert r["read_lat"]["n"] == r["reads"]
            assert r["write_lat"]["n"] == r["writes"]

    def test_reproduces_golden(self):
        golden.reproduces("kv_service")  # _tiny_cfg(), seed 7

    def test_latency_histograms_have_tail_percentiles(self):
        res, _ = run_kv(_tiny_cfg())
        for r in res:
            for lat in (r["read_lat"], r["write_lat"]):
                if lat["n"] == 0:
                    continue
                assert lat["p50_s"] <= lat["p99_s"] <= lat["p999_s"] <= lat["max_s"]
                assert lat["p999_s"] > 0.0

    def test_open_loop_latency_includes_queueing(self):
        """Saturating offered load must inflate sojourn latency well past
        the unloaded service time — the open-loop property the knee sweep
        depends on (a closed-loop measurement would hide the backlog)."""

        def p50_read(cfg):
            res, _ = run_kv(cfg)
            from repro.util.metrics import DwellHistogram

            h = DwellHistogram()
            for r in res:
                h.merge(DwellHistogram.from_dict(r["read_lat"]))
            return h.percentile(50)

        calm = p50_read(_tiny_cfg(rate=50_000.0))
        slammed = p50_read(_tiny_cfg(rate=50_000_000.0))
        assert slammed > calm * 10

    def test_cache_serves_hot_keys(self):
        cfg = _tiny_cfg(zipf_s=1.4, read_fraction=0.95)
        res, _ = run_kv(cfg)
        assert sum(r["cache_hits"] for r in res) > 0

    def test_per_op_rpc_baseline_path(self):
        """aggregate=False serves the same traffic through batch-1 acked
        RPCs — the gate's baseline; every request still completes."""
        cfg = _tiny_cfg(aggregate=False)
        res, _ = run_kv(cfg)
        total = sum(r["reads"] + r["writes"] for r in res)
        assert total == cfg["ranks"] * cfg["n_requests"]
        writes = sum(r["writes"] for r in res)
        batches = sum(r["batches_sent"] for r in res)
        assert batches == writes  # batch size 1: one batch per write
        assert all(r["cache_hits"] == 0 for r in res)

    def test_aggregation_reduces_batches(self):
        # saturating rate: arrivals outpace the dwell deadline, so flushes
        # are size-triggered (the dwell path is covered by the aggregator
        # unit tests; at low offered load partial batches flush on time)
        agg, _ = run_kv(_tiny_cfg(read_fraction=0.0, rate=5e7))
        rpc, _ = run_kv(_tiny_cfg(read_fraction=0.0, rate=5e7, aggregate=False))
        assert sum(r["batches_sent"] for r in agg) < sum(r["batches_sent"] for r in rpc) / 4

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_below_the_knee_a_write_costs_an_ack_not_the_dwell_timer(self, seed):
        """A front end that parks ships its partial batches: at the base
        rate nothing coalesces anyway (1.0x updates per batch), so holding
        a batch for ``max_dwell`` only bought latency (46.5–47.4 us write
        p50 and 1.18–1.23 updates per batch before the park flush)."""
        from repro.bench.kv_bench import summarize_point

        cfg = default_config("tiny")
        res, _ = run_kv(cfg, seed=seed)
        point = summarize_point(cfg, res)
        assert point["max_dwell_s"] == cfg["max_dwell"] == 40e-6
        assert point["write_p50_s"] < cfg["max_dwell"] / 4
        assert point["updates_per_batch"] < 1.1
        assert point["read_p50_s"] < point["write_p50_s"] <= point["write_p99_s"]

    def test_a_saturated_front_end_never_parks(self, monkeypatch):
        """``rate=1e9``: the next arrival is always already due, so the
        pacing sleep — the park flush's only call site — is never entered.
        The digest of the per-rank records pins that saturated run; it
        was re-pinned when read-throughs started to batch per holder."""
        import hashlib
        import json

        parks = []
        park = KvService.park
        monkeypatch.setattr(KvService, "park", lambda self: (parks.append(1), park(self)))
        res, _ = run_kv(dict(default_config("tiny"), rate=1e9, read_fraction=0.1), seed=7)
        assert parks == []
        digest = hashlib.sha256(json.dumps(res, sort_keys=True).encode()).hexdigest()
        assert digest.startswith("658e6bfa31b34a88")
        # ... and the wrapper does count: the same service below the knee parks
        run_kv(_tiny_cfg(), seed=7)
        assert parks

    def test_service_validates_construction_collectively(self):
        def body():
            with pytest.raises(ValueError):
                KvService(batch_size=0)

        upcxx.run_spmd(body, 1)


class TestKvBench:
    def test_summarize_point_folds_ranks(self):
        from repro.bench.kv_bench import summarize_point

        cfg = _tiny_cfg()
        results, _ = run_kv(cfg)
        point = summarize_point(cfg, results)
        assert point["n_requests"] == cfg["ranks"] * cfg["n_requests"]
        assert point["offered_rps"] == cfg["ranks"] * cfg["rate"]
        assert point["achieved_rps"] > 0
        assert 0.0 < point["p50_s"] <= point["p999_s"]

    def test_ablation_clears_gate_target(self):
        """The ``kv_aggregation_vs_rpc`` gate: aggregated write throughput
        at batch >= 64 holds >= 4x over the per-op RPC baseline (10.3x
        measured, 6.6x before batches folded duplicate keys).  Simulated time, so this is exact on any host."""
        from repro.bench.kv_bench import AGGREGATION_GATE_SPEEDUP, aggregation_ablation

        ab = aggregation_ablation("tiny")
        assert ab["aggregated"]["batch_size"] >= 64
        assert ab["per_op_rpc"]["batch_size"] == 1
        assert ab["speedup"] >= AGGREGATION_GATE_SPEEDUP == 4.0

    def test_crash_point_clears_availability_gate(self):
        """The ``kv_crash_availability`` gate: with replication factor 2 one
        mid-run fail-stop costs neither the run nor the data (availability
        1.0000 measured against the 0.99 floor).  The rules are
        ``repro.tools.health``'s, the ones CI applies to the same point;
        simulated time, exact on any host."""
        from repro.bench.kv_bench import measure_crash_point
        from repro.tools import health

        p = measure_crash_point("tiny", replication=2)
        assert p["verdict"] == "Survived" and p["survivors"] == p["ranks"] - 1
        assert p["rereplicated_keys"] > 0  # the recovery path ran
        status = {v.name: v.status for v in health.evaluate({"kv": p})}
        assert health.DEFAULT_MIN_AVAILABILITY == 0.99
        for rule in ("kv-availability", "kv-writes-lost", "kv-factor-restored"):
            assert status[rule] == "PASS", (rule, status)


@pytest.mark.parametrize("argv", [
    ["--crash-point", "9"],
    ["--crash-point", "0"],
    ["--point", "0"],
    ["--point", "-1"],
    ["--point", "nan"],
    ["--point", "inf"],
])
def test_kv_bench_rejects_out_of_range_values(argv, capsys):
    """A factor past the scale's 8 ranks (which ``ReplicaMap`` would clamp,
    so the document names a factor that never ran) and a multiplier that
    is not a finite positive number exit 2 with a message at argument
    parsing, before any rank runs."""
    from repro.bench.kv_bench import main

    with pytest.raises(SystemExit) as exc:
        main(["--scale", "tiny", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert argv[0] in err and "must" in err
