"""Message latency models.

The asynchronous model of the paper puts no bound on message delays; for
benchmarking we sample delays from pluggable distributions.  A latency
model maps ``(src, dst, rng)`` to a one-way delay in virtual time units.

All models guarantee a strictly positive delay so that a message is never
delivered in the step that sent it (the paper's steps are atomic: send
and receive are distinct steps).

Fast path
---------

The network transport asks a model three questions so it can skip work
per message:

* :meth:`LatencyModel.constant_delay` — a fixed delay (no RNG at all)?
* :attr:`LatencyModel.link_invariant` — is the distribution independent
  of ``(src, dst)``?  If so delays can be *pre-sampled in batches*
  (:meth:`delays`) and handed out one per message.
* otherwise the per-message :meth:`delay` path is used.

Batch sampling draws from the **same** ``random.Random`` stream, in the
same order, as per-message sampling would — message *i* receives the
*i*-th draw either way — so switching the engine to batches changes no
history.  (True numpy vectorisation would use a different generator and
silently change every seeded run, so no model does it.)
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.sim.ids import ProcessId

_MIN_DELAY = 1e-9


class LatencyModel:
    """Base class: override :meth:`sample`."""

    #: True when the distribution ignores ``(src, dst)`` — enables the
    #: pre-sampled batch fast path in the network transport.
    link_invariant = False

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        raise NotImplementedError

    def sample_batch(
        self, src: ProcessId, dst: ProcessId, rng: random.Random, n: int
    ) -> List[float]:
        """``n`` raw draws, identical in sequence to ``n`` :meth:`sample` calls."""
        sample = self.sample
        return [sample(src, dst, rng) for _ in range(n)]

    def constant_delay(self) -> Optional[float]:
        """The clamped fixed delay if the model is deterministic, else None."""
        return None

    def delay(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        """Sample and clamp to the minimum positive delay."""
        value = self.sample(src, dst, rng)
        if math.isnan(value) or math.isinf(value):
            raise ConfigurationError(f"latency model produced {value!r}")
        return max(value, _MIN_DELAY)

    def delays(
        self, src: ProcessId, dst: ProcessId, rng: random.Random, n: int
    ) -> List[float]:
        """``n`` clamped delays — the batched equivalent of :meth:`delay`."""
        out = self.sample_batch(src, dst, rng, n)
        for i, value in enumerate(out):
            if math.isnan(value) or math.isinf(value):
                raise ConfigurationError(f"latency model produced {value!r}")
            if value < _MIN_DELAY:
                out[i] = _MIN_DELAY
        return out


@dataclass
class ConstantLatency(LatencyModel):
    """Every message takes exactly ``delay`` time units."""

    delay_value: float = 1.0

    link_invariant = True

    def __post_init__(self) -> None:
        if self.delay_value <= 0:
            raise ConfigurationError("constant latency must be positive")

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        return self.delay_value

    def constant_delay(self) -> Optional[float]:
        return max(self.delay_value, _MIN_DELAY)


@dataclass
class UniformLatency(LatencyModel):
    """Delays drawn uniformly from ``[low, high]``."""

    low: float = 0.5
    high: float = 1.5

    link_invariant = True

    def __post_init__(self) -> None:
        if self.low <= 0 or self.high < self.low:
            raise ConfigurationError(
                f"uniform latency requires 0 < low <= high, got [{self.low}, {self.high}]"
            )

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def sample_batch(
        self, src: ProcessId, dst: ProcessId, rng: random.Random, n: int
    ) -> List[float]:
        uniform, low, high = rng.uniform, self.low, self.high
        return [uniform(low, high) for _ in range(n)]


@dataclass
class ExponentialLatency(LatencyModel):
    """Exponential delays with the given mean, shifted by ``floor``.

    The heavy right tail makes this the adversarial-ish distribution used
    in the asynchrony-sensitivity benchmarks: a small fraction of
    messages is very late, which is what distinguishes one-round reads
    from two-round reads in the tail percentiles.
    """

    mean: float = 1.0
    floor: float = 0.05

    link_invariant = True

    def __post_init__(self) -> None:
        if self.mean <= 0 or self.floor < 0:
            raise ConfigurationError("exponential latency needs mean > 0, floor >= 0")

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        return self.floor + rng.expovariate(1.0 / self.mean)

    def sample_batch(
        self, src: ProcessId, dst: ProcessId, rng: random.Random, n: int
    ) -> List[float]:
        expovariate, rate, floor = rng.expovariate, 1.0 / self.mean, self.floor
        return [floor + expovariate(rate) for _ in range(n)]


@dataclass
class LogNormalLatency(LatencyModel):
    """Log-normal delays, the usual shape of datacenter RPC latencies."""

    median: float = 1.0
    sigma: float = 0.5

    link_invariant = True

    def __post_init__(self) -> None:
        if self.median <= 0 or self.sigma < 0:
            raise ConfigurationError("lognormal latency needs median > 0, sigma >= 0")

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        return rng.lognormvariate(math.log(self.median), self.sigma)

    def sample_batch(
        self, src: ProcessId, dst: ProcessId, rng: random.Random, n: int
    ) -> List[float]:
        lognormvariate, mu, sigma = rng.lognormvariate, math.log(self.median), self.sigma
        return [lognormvariate(mu, sigma) for _ in range(n)]


@dataclass
class PerLinkLatency(LatencyModel):
    """Different base latencies per (src, dst) pair, with a default.

    Useful for modelling a far-away server or an asymmetric topology;
    pairs not listed use ``default``.
    """

    default: LatencyModel = field(default_factory=ConstantLatency)
    overrides: Dict[Tuple[ProcessId, ProcessId], LatencyModel] = field(
        default_factory=dict
    )

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        model = self.overrides.get((src, dst), self.default)
        return model.sample(src, dst, rng)


@dataclass
class SlowServerLatency(LatencyModel):
    """A set of straggler servers whose links are ``factor`` times slower.

    This is how the benchmarks model the paper's motivation that a reader
    can only wait for ``S - t`` servers: with ``t`` stragglers, one-round
    protocols complete from the fast majority while two-round protocols
    pay the straggler tax twice as often.
    """

    base: LatencyModel = field(default_factory=UniformLatency)
    slow: frozenset = frozenset()
    factor: float = 10.0

    def __post_init__(self) -> None:
        if self.factor < 1:
            raise ConfigurationError("straggler factor must be >= 1")

    def sample(self, src: ProcessId, dst: ProcessId, rng: random.Random) -> float:
        value = self.base.sample(src, dst, rng)
        if src in self.slow or dst in self.slow:
            value *= self.factor
        return value
