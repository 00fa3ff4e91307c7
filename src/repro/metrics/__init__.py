"""Measurement helpers: throughput, latency percentiles, time series,
and fault summaries."""

from repro.metrics.recorders import (
    LatencyRecorder,
    ThroughputTracker,
    TimeSeries,
    deviation_from_ideal,
    fault_summary,
    percentile,
)

__all__ = [
    "LatencyRecorder",
    "ThroughputTracker",
    "TimeSeries",
    "deviation_from_ideal",
    "fault_summary",
    "percentile",
]
