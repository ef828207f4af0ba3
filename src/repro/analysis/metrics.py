"""Latency and message metrics over run results.

All latencies are in *simulated* time units — one unit is one mean
message delay under the default models — so the numbers compare
protocol round structure, not Python speed.  The paper's time-complexity
claims (one vs two round-trips) appear directly as ~2 vs ~4 message
delays per read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.spec.histories import History


@dataclass(frozen=True, slots=True)
class LatencySummary:
    """Distribution summary of operation latencies."""

    count: int
    mean: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def describe(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.3f} p50={self.p50:.3f} "
            f"p95={self.p95:.3f} p99={self.p99:.3f} max={self.maximum:.3f}"
        )


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile; 0 for empty input."""
    if not values:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(values)
    rank = max(0, math.ceil(fraction * len(ordered)) - 1)
    return ordered[rank]


def summarize(values: Sequence[float]) -> LatencySummary:
    if not values:
        return LatencySummary(count=0, mean=0.0, p50=0.0, p95=0.0, p99=0.0, maximum=0.0)
    ordered = sorted(values)
    count = len(ordered)

    def rank(fraction: float) -> float:
        return ordered[max(0, math.ceil(fraction * count) - 1)]

    return LatencySummary(
        count=count,
        mean=sum(ordered) / count,
        p50=rank(0.50),
        p95=rank(0.95),
        p99=rank(0.99),
        maximum=ordered[-1],
    )


def latencies(history: History, kind: Optional[str] = None) -> List[float]:
    """Latencies of complete operations, optionally one kind only."""
    return [
        op.responded_at - op.invoked_at
        for op in history.complete_operations
        if kind is None or op.kind == kind
    ]


def latency_by_kind(history: History) -> Dict[str, LatencySummary]:
    return {
        kind: summarize(latencies(history, kind))
        for kind in ("read", "write")
    }


def summarize_by_kind(
    read_latencies: Sequence[float], write_latencies: Sequence[float]
) -> Dict[str, LatencySummary]:
    """Summaries from pre-collected latency lists.

    The online :class:`~repro.spec.online.HistoryValidator` accumulates
    per-kind latencies as operations complete; this turns them into the
    same shape as :func:`latency_by_kind` without re-walking the history.
    """
    return {
        "read": summarize(read_latencies),
        "write": summarize(write_latencies),
    }


def throughput(history: History) -> float:
    """Completed operations per unit of simulated time."""
    complete = history.complete_operations
    if not complete:
        return 0.0
    span = max(op.responded_at for op in complete) - min(
        op.invoked_at for op in complete
    )
    if span <= 0:
        return float(len(complete))
    return len(complete) / span


def messages_per_operation(total_messages: int, history: History) -> float:
    complete = len(history.complete_operations)
    if complete == 0:
        return 0.0
    return total_messages / complete


class LatencyHistogram:
    """Log-bucketed latency histogram with quantile estimation.

    Designed for the networked load harness: shards accumulate counts
    independently and the parent merges them, so the memory cost is a
    fixed bucket array no matter how many million operations flow
    through.  Buckets are geometric — ``RATIO``-spaced from
    :data:`RESOLUTION` upward — so relative quantile error is bounded by
    one bucket width (~9%) across the whole microsecond-to-minute range.
    """

    #: Lower edge of the first finite bucket (values below land in it).
    RESOLUTION = 1e-6
    #: Geometric spacing of bucket upper edges: 2 ** (1/8).
    RATIO = 2.0 ** 0.125
    BUCKETS = 256  # covers RESOLUTION * RATIO**256 ≈ 4.9e3 seconds

    __slots__ = ("counts", "count", "total", "minimum", "maximum")

    def __init__(self) -> None:
        self.counts = [0] * self.BUCKETS
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = 0.0

    def _bucket(self, value: float) -> int:
        if value <= self.RESOLUTION:
            return 0
        index = int(math.log(value / self.RESOLUTION, self.RATIO)) + 1
        return min(index, self.BUCKETS - 1)

    def _upper_edge(self, index: int) -> float:
        return self.RESOLUTION * self.RATIO**index

    def add(self, value: float) -> None:
        self.counts[self._bucket(value)] += 1
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    def extend(self, values: Sequence[float]) -> "LatencyHistogram":
        for value in values:
            self.add(value)
        return self

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "LatencyHistogram":
        return cls().extend(values)

    def merge(self, other: "LatencyHistogram") -> "LatencyHistogram":
        for index, n in enumerate(other.counts):
            self.counts[index] += n
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, fraction: float) -> float:
        """Upper edge of the bucket holding the ``fraction`` rank.

        Clamped to the observed maximum so outliers in the last bucket
        report the true extreme rather than the bucket edge.
        """
        if not self.count:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        rank = max(1, math.ceil(fraction * self.count))
        seen = 0
        for index, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return min(self._upper_edge(index), self.maximum)
        return self.maximum  # pragma: no cover - unreachable (counts sum)

    def nonzero_buckets(self) -> List[tuple]:
        """``(upper_edge_seconds, count)`` for every occupied bucket."""
        return [
            (self._upper_edge(index), n)
            for index, n in enumerate(self.counts)
            if n
        ]

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else 0.0,
            "max": self.maximum,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "buckets": [
                {"le": edge, "n": n} for edge, n in self.nonzero_buckets()
            ],
        }


def merge_rounds_histograms(
    parts: Sequence[Dict[str, Dict[int, int]]],
) -> Dict[str, Dict[int, int]]:
    """Merge per-run round-count histograms ``{kind: {rounds: count}}``.

    Counts are integers, so unlike :func:`merge_summaries` this merge is
    exact; the vectorized sweep kernel uses it to aggregate per-batch
    round verdicts into sweep-level histograms.
    """
    out: Dict[str, Dict[int, int]] = {}
    for part in parts:
        for kind, hist in part.items():
            bucket = out.setdefault(kind, {})
            for rounds, count in hist.items():
                bucket[rounds] = bucket.get(rounds, 0) + count
    return out


def merge_summaries(parts: Sequence[LatencySummary]) -> LatencySummary:
    """Combine per-run summaries into one aggregate.

    Counts, means and maxima merge exactly.  The percentiles of a merged
    distribution are not recoverable from per-run percentiles, so p50,
    p95 and p99 are count-weighted averages — a standard approximation
    that is exact when the runs are identically distributed, which is
    the seed-sweep case (same scenario, different seeds).  The merge is
    deterministic in the order of ``parts``: batch runners feed it
    summaries sorted by spec index so serial and parallel sweeps produce
    identical aggregates.
    """
    parts = [part for part in parts if part.count > 0]
    if not parts:
        return summarize([])
    total = sum(part.count for part in parts)

    def weighted(attr: str) -> float:
        return sum(getattr(part, attr) * part.count for part in parts) / total

    return LatencySummary(
        count=total,
        mean=weighted("mean"),
        p50=weighted("p50"),
        p95=weighted("p95"),
        p99=weighted("p99"),
        maximum=max(part.maximum for part in parts),
    )
