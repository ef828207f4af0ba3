"""Small shared pieces: the workload interface, statistics, seeds."""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Sequence

from repro.sim.rng import derive_seed


def seed32(seed: int, *path: Any) -> int:
    """A 32-bit child seed: every generated input hangs off ``--seed``."""
    return derive_seed(seed, "ledger", *path) % 2**32


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def tail_percentile(values: Sequence[float]) -> float:
    """The highest of p99 / p95 / p90 with at least ten samples beyond it."""
    for fraction in (0.99, 0.95, 0.90):
        if len(values) * (1.0 - fraction) >= 10:
            return percentile(values, fraction)
    return percentile(values, 0.5)


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


class Workload:
    """One ledger workload.

    ``rep()`` runs the workload's fixed work once and returns::

        {"wall_s": seconds of the timed phase,
         "e2e": {metric: value}         # the workload's own metrics
         "counts": {name: exact value}  # must repeat exactly every rep
         "attempted": n, "failed": n, "problems": [text, ...],
         "info": {...}}                 # secondary numbers, free-form

    ``windows`` maps a phase name to ``perf_counter_ns`` bounds; ``op``
    is the timed phase.  ``primary`` names the entry of ``e2e`` that is
    the workload's own rate.
    """

    name = ""
    primary = ""

    def __init__(self, seed: int, scale: float) -> None:
        self.seed = seed
        self.scale = scale

    def size(self, full: int, floor: int = 1) -> int:
        return max(floor, int(round(full * self.scale)))

    def setup(self) -> None:
        """Build the inputs from the seed (counted in ``setup_s``)."""

    def warmup(self) -> None:
        """A short rep that fills caches (counted in ``setup_s``)."""
        raise NotImplementedError

    def rep(self) -> Dict[str, Any]:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """Fingerprint of the generated inputs (selftest: seed matters)."""
        raise NotImplementedError

    def trace_points(self) -> List[tuple]:
        """``Tracer.wrap`` arguments for the callables this workload uses."""
        raise NotImplementedError

    def layers(self, aggs, counts, rep) -> Dict[str, float]:
        """Per-layer metrics of one traced rep (span aggregates per window)."""
        return {}

    def secondary(self, rep) -> Dict[str, float]:
        """Per-layer metrics that need no wrapper, from one plain rep."""
        return {}
