"""Unit tests for the util layer: units, stats, benchmark records, trace."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.util.records import BenchSeries, BenchTable, format_table, series_from_mapping
from repro.util.stats import Summary, geomean, speedup, summarize
from repro.util.trace import TraceBuffer
from repro.util.units import (
    GiB,
    KiB,
    MiB,
    fmt_bytes,
    fmt_rate,
    fmt_time,
    parse_size,
)


class TestUnits:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, "0B"), (8, "8B"), (1023, "1023B"), (1024, "1KiB"), (8192, "8KiB"),
         (MiB, "1MiB"), (4 * MiB, "4MiB"), (GiB, "1GiB"), (1536, "1.50KiB")],
    )
    def test_fmt_bytes(self, n, expected):
        assert fmt_bytes(n) == expected

    def test_fmt_bytes_negative_rejected(self):
        with pytest.raises(ValueError):
            fmt_bytes(-1)

    @pytest.mark.parametrize(
        "text,expected",
        [("8", 8), ("8K", 8 * KiB), ("4MiB", 4 * MiB), ("1 gb", GiB), ("512b", 512)],
    )
    def test_parse_size(self, text, expected):
        assert parse_size(text) == expected

    def test_parse_size_invalid(self):
        for bad in ["", "K", "8Q", "abc"]:
            with pytest.raises(ValueError):
                parse_size(bad)

    def test_parse_fmt_roundtrip(self):
        for n in [8, 1024, 8192, MiB, 4 * MiB]:
            assert parse_size(fmt_bytes(n)) == n

    @pytest.mark.parametrize(
        "t,frag",
        [(0, "0s"), (5e-9, "ns"), (1.5e-6, "us"), (2.5e-3, "ms"), (3.0, "s")],
    )
    def test_fmt_time(self, t, frag):
        assert frag in fmt_time(t)

    def test_fmt_time_negative(self):
        assert fmt_time(-1e-6).startswith("-")

    def test_fmt_rate(self):
        assert fmt_rate(2 * GiB) == "2.00GiB/s"
        assert "MiB/s" in fmt_rate(5 * MiB)
        assert "B/s" in fmt_rate(10)


class TestStats:
    def test_summarize_basic(self):
        s = summarize([3.0, 1.0, 2.0])
        assert s == Summary(
            n=3, mean=2.0, minimum=1.0, maximum=3.0, median=2.0, stdev=1.0,
            p50=2.0, p95=2.9, p99=2.98, p999=2.998,
        )
        assert s.best == 1.0

    def test_summarize_percentiles_interpolate(self):
        # order statistics of [1..5]: p50 is the middle sample, p95/p99
        # interpolate linearly between the last two samples
        s = summarize([5.0, 1.0, 4.0, 2.0, 3.0])
        assert s.p50 == 3.0
        assert s.p95 == pytest.approx(4.8)
        assert s.p99 == pytest.approx(4.96)
        assert s.p999 == pytest.approx(4.996)
        one = summarize([7.0])
        assert one.p50 == one.p95 == one.p99 == one.p999 == 7.0

    def test_summarize_even_median(self):
        assert summarize([1, 2, 3, 4]).median == 2.5

    def test_summarize_single(self):
        s = summarize([5.0])
        assert s.stdev == 0.0 and s.mean == 5.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_summarize_rejects_non_finite(self, bad):
        # a NaN compares false against everything, silently corrupting
        # min/median/best — reject loudly instead
        with pytest.raises(ValueError, match="finite"):
            summarize([1.0, bad, 2.0])

    def test_geomean_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            geomean([1.0, float("nan")])

    def test_summarize_mean_clamped_to_bounds(self):
        # three identical samples whose naive sum()/n exceeds max by one ulp
        v = 349525.49512621143
        s = summarize([v, v, v])
        assert s.minimum <= s.mean <= s.maximum

    def test_geomean(self):
        assert geomean([1, 100]) == pytest.approx(10.0)
        with pytest.raises(ValueError):
            geomean([1, 0])
        with pytest.raises(ValueError):
            geomean([])

    def test_speedup(self):
        assert speedup(10.0, 5.0) == 2.0
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1, max_size=50))
    def test_summary_bounds_property(self, xs):
        s = summarize(xs)
        assert s.minimum <= s.median <= s.maximum
        assert s.minimum <= s.mean <= s.maximum


class TestRecords:
    def test_series_add_and_lookup(self):
        s = BenchSeries("lat")
        s.add(8, 1.5)
        s.add(16, 2.5)
        assert s.y_at(16) == 2.5
        with pytest.raises(KeyError):
            s.y_at(99)
        assert s.as_dict() == {"label": "lat", "x": [8, 16], "y": [1.5, 2.5]}

    def test_table_ratio(self):
        t = BenchTable("T", "x", "y")
        a = t.new_series("a")
        b = t.new_series("b")
        a.add(1, 10.0)
        b.add(1, 5.0)
        assert t.ratio("a", "b", 1) == 2.0
        with pytest.raises(KeyError):
            t.get("missing")

    def test_format_table_aligns_and_fills_gaps(self):
        t = BenchTable("Demo", "size", "us")
        a = t.new_series("one")
        b = t.new_series("two")
        a.add(8, 1.0)
        a.add(16, 2.0)
        b.add(8, 3.0)
        text = format_table(t, y_fmt=lambda y: f"{y:.1f}")
        lines = text.splitlines()
        assert "Demo" in lines[0]
        assert "-" in text.splitlines()[-1]  # the missing b@16 renders as '-'
        # all rows align to the same width
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1

    def test_series_from_mapping_sorted(self):
        s = series_from_mapping("m", {3: 30, 1: 10, 2: 20})
        assert s.xs == [1, 2, 3]
        assert s.ys == [10, 20, 30]


class TestTrace:
    def test_capacity_bounds(self):
        tb = TraceBuffer(capacity=3)
        for i in range(10):
            tb.record(float(i), 0, "k", str(i))
        assert len(tb) == 3
        assert [e.detail for e in tb] == ["7", "8", "9"]

    def test_disabled_records_nothing(self):
        tb = TraceBuffer(enabled=False)
        tb.record(1.0, 0, "k")
        assert len(tb) == 0

    def test_fingerprint_order_sensitive(self):
        t1, t2 = TraceBuffer(), TraceBuffer()
        t1.record(1.0, 0, "a")
        t1.record(2.0, 0, "b")
        t2.record(2.0, 0, "b")
        t2.record(1.0, 0, "a")
        assert t1.fingerprint() != t2.fingerprint()

    def test_canonical_sort_is_stable_per_rank(self):
        t = TraceBuffer()
        t.record(2.0, 0, "block", "b")
        t.record(1.0, 1, "block", "x")
        t.record(1.0, 0, "block", "a")
        t.record(1.0, 1, "resume", "x")  # same (time, rank): order must persist
        assert [(e.time, e.rank, e.kind) for e in t.canonical_events()] == [
            (1.0, 0, "block"),
            (1.0, 1, "block"),
            (1.0, 1, "resume"),
            (2.0, 0, "block"),
        ]

    def test_canonical_order_ignores_cross_rank_interleaving(self):
        """Two dispatch orders of the same per-rank histories: the raw
        traces differ, the canonical one (what the golden digest hashes)
        does not."""
        rank0 = [(1.0, 0, "block", "p"), (3.0, 0, "resume", "p")]
        rank1 = [(1.0, 1, "block", "q"), (2.0, 1, "resume", "q")]
        a, b = TraceBuffer(), TraceBuffer()
        for ev in rank0 + rank1:
            a.record(*ev)
        for ev in rank1 + rank0:
            b.record(*ev)
        assert a.fingerprint() != b.fingerprint()
        assert a.canonical_events() == b.canonical_events()
        assert a.canonical_fingerprint() == b.canonical_fingerprint()

    def test_dump_limit(self):
        tb = TraceBuffer()
        for i in range(5):
            tb.record(float(i), i, "k", f"e{i}")
        assert tb.dump(limit=2).count("\n") == 1
        tb.clear()
        assert len(tb) == 0
