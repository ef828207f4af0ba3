"""Randomized end-to-end fuzzing across protocols, faults and latencies.

Every run's history goes to the independent checkers; these tests are
the closest thing to the protocols' operational envelope.

Per-case seeds derive from a fixed root via :func:`derive_seed` (never
Python's salted ``hash``), so a failing case reproduces with the same
seed in any process — including parallel test runners — and a rerun
explores exactly the same runs.
"""

import pytest

from repro.sim.rng import derive_seed

from repro.faults.byzantine import corrupt
from repro.registers.base import ClusterConfig
from repro.sim.ids import server
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LogNormalLatency,
    UniformLatency,
)
from repro.workloads import ClosedLoopWorkload, run_workload
from repro.workloads.scenarios import get_scenario

LATENCIES = [
    ConstantLatency(1.0),
    UniformLatency(0.2, 3.0),
    ExponentialLatency(mean=1.0),
    LogNormalLatency(median=1.0, sigma=0.8),
]

ATOMIC_SWMR = [
    ("fast-crash", ClusterConfig(S=9, t=2, R=2)),
    ("fast-crash", ClusterConfig(S=13, t=3, R=2)),
    ("abd", ClusterConfig(S=5, t=2, R=3)),
    ("maxmin", ClusterConfig(S=5, t=2, R=3)),
    ("swsr-fast", ClusterConfig(S=5, t=2, R=1)),
]


class TestAtomicProtocolsUnderChaos:
    @pytest.mark.parametrize("latency", LATENCIES, ids=lambda l: type(l).__name__)
    @pytest.mark.parametrize(
        "protocol,config", ATOMIC_SWMR, ids=lambda p: str(p)
    )
    def test_contention_atomic(self, protocol, config, latency):
        result = run_workload(
            protocol,
            config,
            workload=ClosedLoopWorkload.contention(ops=5),
            seed=derive_seed(
                0, "fuzz", protocol, config.S, config.t, type(latency).__name__
            ) % 1000,
            latency=latency,
        )
        verdict = result.check_atomic()
        assert verdict.ok, f"{protocol}: {verdict.describe()}\n" + (
            result.history.describe()
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_fast_crash_with_scenario_faults(self, seed):
        config = ClusterConfig(S=13, t=3, R=2)
        scenario = get_scenario("worst-case-faults")
        result = run_workload(
            "fast-crash",
            config,
            workload=scenario.workload,
            seed=seed,
            crash_plan=scenario.crash_plan(config, seed),
            latency=UniformLatency(0.2, 2.0),
        )
        assert result.check_atomic().ok, result.history.describe()
        assert result.check_fast().ok

    @pytest.mark.parametrize("seed", range(4))
    def test_abd_with_faults(self, seed):
        config = ClusterConfig(S=7, t=3, R=3)
        scenario = get_scenario("faulty")
        result = run_workload(
            "abd",
            config,
            workload=scenario.workload,
            seed=seed,
            crash_plan=scenario.crash_plan(config, seed),
        )
        assert result.check_atomic().ok


class TestByzantineMixes:
    @pytest.mark.parametrize("seed", range(4))
    def test_full_byzantine_budget(self, seed):
        """b liars of rotating behaviours; S > (R+2)t + (R+1)b holds."""
        config = ClusterConfig(S=15, t=2, b=2, R=2)

        def hook(cluster):
            behaviours = ["stale", "inflate-seen", "silent"]
            for offset, index in enumerate([1, 2]):
                corrupt(cluster, index, behaviours[(seed + offset) % len(behaviours)])

        result = run_workload(
            "fast-byzantine",
            config,
            workload=ClosedLoopWorkload.contention(ops=4),
            seed=seed,
            latency=ExponentialLatency(mean=1.0),
            cluster_hook=hook,
        )
        assert result.check_atomic().ok, result.history.describe()

    def test_byzantine_plus_crash_within_t(self):
        """b=1 liar plus one crash: total faulty = t = 2."""
        from repro.faults.crash import CrashPlan

        config = ClusterConfig(S=15, t=2, b=1, R=2)

        def hook(cluster):
            corrupt(cluster, 1, "stale")

        result = run_workload(
            "fast-byzantine",
            config,
            workload=ClosedLoopWorkload.contention(ops=4),
            seed=3,
            crash_plan=CrashPlan().add(server(2), 2.0),
            cluster_hook=hook,
        )
        assert result.check_atomic().ok


class TestRegularUnderChaos:
    @pytest.mark.parametrize("seed", range(4))
    def test_regular_register_always_regular(self, seed):
        config = ClusterConfig(S=5, t=2, R=4)
        result = run_workload(
            "regular-fast",
            config,
            workload=ClosedLoopWorkload.contention(ops=6),
            seed=seed,
            latency=ExponentialLatency(mean=1.0),
        )
        assert result.check_regular().ok, result.history.describe()


class TestMwmrUnderChaos:
    @pytest.mark.parametrize("seed", range(4))
    def test_mwmr_linearizable(self, seed):
        config = ClusterConfig(S=5, t=2, R=2, W=3)
        result = run_workload(
            "mwmr",
            config,
            workload=ClosedLoopWorkload.contention(ops=3),
            seed=seed,
            latency=UniformLatency(0.2, 2.0),
        )
        assert result.check_atomic().ok, result.history.describe()
