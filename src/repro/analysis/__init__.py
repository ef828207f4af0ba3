"""Metrics, tables and threshold-boundary cases over simulation runs."""

from repro.analysis.metrics import (
    LatencySummary,
    latencies,
    latency_by_kind,
    merge_summaries,
    messages_per_operation,
    percentile,
    summarize,
    throughput,
)
from repro.analysis.sweep import BoundaryCase, boundary_cases
from repro.analysis.tables import render_table

__all__ = [
    "BoundaryCase",
    "LatencySummary",
    "boundary_cases",
    "latencies",
    "latency_by_kind",
    "merge_summaries",
    "messages_per_operation",
    "percentile",
    "render_table",
    "summarize",
    "throughput",
]
