"""Shared utilities: units, statistics, benchmark records, tracing.

These helpers are deliberately dependency-light so every other subpackage
(`sim`, `gasnet`, `upcxx`, `mpisim`, `apps`, `bench`) can use them without
import cycles.
"""

from repro.util.units import (
    KiB,
    MiB,
    GiB,
    US,
    MS,
    NS,
    fmt_bytes,
)
from repro.util.stats import Summary, summarize
from repro.util.records import BenchSeries, BenchTable, format_table
from repro.util.trace import TraceBuffer, TraceEvent
from repro.util.metrics import DwellHistogram, Metrics, RankMetrics
from repro.util.spans import PHASES, SpanBuffer
from repro.util.telemetry import RankTelemetry, Telemetry, dumps_blackbox
from repro.util.trace_export import (
    chrome_trace,
    chrome_trace_span_events,
    chrome_trace_telemetry_events,
    dumps_chrome_trace,
    dumps_metrics,
    export_chrome_trace,
)

__all__ = [
    "KiB",
    "MiB",
    "GiB",
    "US",
    "MS",
    "NS",
    "fmt_bytes",
    "Summary",
    "summarize",
    "BenchSeries",
    "BenchTable",
    "format_table",
    "TraceBuffer",
    "TraceEvent",
    "Metrics",
    "RankMetrics",
    "DwellHistogram",
    "PHASES",
    "SpanBuffer",
    "Telemetry",
    "RankTelemetry",
    "dumps_blackbox",
    "chrome_trace",
    "chrome_trace_span_events",
    "chrome_trace_telemetry_events",
    "dumps_chrome_trace",
    "dumps_metrics",
    "export_chrome_trace",
]
