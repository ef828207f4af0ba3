"""Tests for latency models."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.sim.ids import reader, server
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LogNormalLatency,
    PerLinkLatency,
    SlowServerLatency,
    UniformLatency,
)


def draws(model, n=200, seed=0):
    rng = random.Random(seed)
    return [model.delay(reader(1), server(1), rng) for _ in range(n)]


class TestConstantLatency:
    def test_returns_constant(self):
        assert set(draws(ConstantLatency(2.5), n=10)) == {2.5}

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(0.0)


class TestUniformLatency:
    def test_within_bounds(self):
        values = draws(UniformLatency(1.0, 3.0))
        assert all(1.0 <= v <= 3.0 for v in values)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(3.0, 1.0)

    def test_rejects_zero_low(self):
        with pytest.raises(ConfigurationError):
            UniformLatency(0.0, 1.0)


class TestExponentialLatency:
    def test_all_above_floor(self):
        values = draws(ExponentialLatency(mean=1.0, floor=0.2))
        assert all(v >= 0.2 for v in values)

    def test_mean_roughly_correct(self):
        values = draws(ExponentialLatency(mean=2.0, floor=0.0), n=3000)
        mean = sum(values) / len(values)
        assert 1.6 < mean < 2.4

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            ExponentialLatency(mean=0.0)
        with pytest.raises(ConfigurationError):
            ExponentialLatency(mean=1.0, floor=-1.0)


class TestLogNormalLatency:
    def test_positive(self):
        assert all(v > 0 for v in draws(LogNormalLatency(median=1.0, sigma=0.8)))

    def test_zero_sigma_is_constant(self):
        values = draws(LogNormalLatency(median=2.0, sigma=0.0), n=10)
        assert all(abs(v - 2.0) < 1e-9 for v in values)

    def test_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            LogNormalLatency(median=0.0)


class TestPerLinkLatency:
    def test_override_applies_to_pair(self):
        model = PerLinkLatency(
            default=ConstantLatency(1.0),
            overrides={(reader(1), server(1)): ConstantLatency(9.0)},
        )
        rng = random.Random(0)
        assert model.delay(reader(1), server(1), rng) == 9.0
        assert model.delay(reader(1), server(2), rng) == 1.0


class TestSlowServerLatency:
    def test_straggler_links_slower(self):
        model = SlowServerLatency(
            base=ConstantLatency(1.0), slow=frozenset({server(2)}), factor=5.0
        )
        rng = random.Random(0)
        assert model.delay(reader(1), server(2), rng) == 5.0
        assert model.delay(server(2), reader(1), rng) == 5.0
        assert model.delay(reader(1), server(1), rng) == 1.0

    def test_rejects_speedup_factor(self):
        with pytest.raises(ConfigurationError):
            SlowServerLatency(factor=0.5)


class TestDelayClamping:
    def test_delay_never_zero(self):
        class Zeroish(ConstantLatency):
            def sample(self, src, dst, rng):
                return 0.0

        model = Zeroish(delay_value=1.0)
        assert model.delay(reader(1), server(1), random.Random(0)) > 0


class TestBatchSampling:
    """The fast-path contract: batched draws consume the RNG exactly as
    per-message draws would, so pre-sampling never changes a seeded run."""

    MODELS = [
        ConstantLatency(1.5),
        UniformLatency(0.5, 1.5),
        ExponentialLatency(mean=1.0, floor=0.05),
        LogNormalLatency(median=1.0, sigma=0.5),
    ]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_batch_equals_scalar_stream(self, model):
        scalar_rng, batch_rng = random.Random(42), random.Random(42)
        scalar = [model.delay(reader(1), server(1), scalar_rng) for _ in range(257)]
        batched = model.delays(reader(1), server(1), batch_rng, 257)
        assert batched == scalar

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_fast_path_models_are_link_invariant(self, model):
        assert model.link_invariant

    def test_per_link_models_stay_on_scalar_path(self):
        assert not PerLinkLatency().link_invariant
        assert not SlowServerLatency().link_invariant

    def test_constant_delay_only_for_constant(self):
        assert ConstantLatency(2.0).constant_delay() == 2.0
        assert UniformLatency().constant_delay() is None

    def test_batch_clamps_like_scalar(self):
        class Zeroish(ConstantLatency):
            def sample(self, src, dst, rng):
                return 0.0

        model = Zeroish(delay_value=1.0)
        values = model.delays(reader(1), server(1), random.Random(0), 5)
        assert all(v > 0 for v in values)
