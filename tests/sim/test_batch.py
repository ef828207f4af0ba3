"""Tests for the batched sweep runner."""

import pytest

from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.sim.batch import (
    BatchRunner,
    RunSummary,
    SweepSpec,
    build_matrix,
    execute_spec,
    seed_matrix,
)
from repro.sim.latency import UniformLatency

CONFIG = ClusterConfig(S=8, t=1, R=3)


def small_matrix(seeds=2, check=True):
    return build_matrix(
        protocols=["fast-crash", "abd"],
        scenarios=["smoke", "write-storm"],
        config=CONFIG,
        seeds=seed_matrix(0, seeds),
        check=check,
    )


class TestSeedMatrix:
    def test_deterministic(self):
        assert seed_matrix(0, 4) == seed_matrix(0, 4)

    def test_distinct_roots_differ(self):
        assert seed_matrix(0, 4) != seed_matrix(1, 4)

    def test_prefix_stable(self):
        # growing a sweep keeps the seeds of already-run cells
        assert seed_matrix(0, 8)[:4] == seed_matrix(0, 4)

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_seeds_is_a_configuration_error(self, count):
        with pytest.raises(ConfigurationError, match=f"at least one seed, got {count}"):
            seed_matrix(0, count)


class TestBuildMatrix:
    def test_cartesian_order(self):
        specs = small_matrix(seeds=2)
        assert len(specs) == 2 * 2 * 2
        assert [s.protocol for s in specs[:4]] == ["fast-crash"] * 4
        assert specs[0].scenario == specs[1].scenario == "smoke"

    def test_infeasible_protocol_skipped(self):
        # fast-crash needs S > (R + 2) t: infeasible at R = 8, S = 8
        tight = ClusterConfig(S=8, t=1, R=8)
        specs = build_matrix(
            protocols=["fast-crash", "abd"],
            scenarios=["smoke"],
            config=tight,
            seeds=[1],
        )
        assert [s.protocol for s in specs] == ["abd"]

    def test_infeasible_protocol_raises_when_not_skipping(self):
        tight = ClusterConfig(S=8, t=1, R=8)
        with pytest.raises(ConfigurationError, match="fast-crash"):
            build_matrix(
                protocols=["fast-crash", "abd"],
                scenarios=["smoke"],
                config=tight,
                seeds=[1],
                skip_infeasible=False,
            )

    def test_feasible_matrix_identical_under_both_flags(self):
        kwargs = dict(
            protocols=["abd"], scenarios=["smoke"], config=CONFIG, seeds=[1, 2]
        )
        assert build_matrix(**kwargs, skip_infeasible=False) == build_matrix(**kwargs)

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            build_matrix(
                protocols=["abd"], scenarios=["no-such"], config=CONFIG, seeds=[1]
            )


class TestExecuteSpec:
    def test_summary_shape(self):
        spec = SweepSpec(protocol="fast-crash", scenario="smoke", config=CONFIG, seed=1)
        summary = execute_spec(spec)
        assert isinstance(summary, RunSummary)
        assert summary.ops_complete > 0
        assert summary.events > 0
        assert summary.messages > 0
        assert summary.atomic_ok is True
        assert summary.read.count > 0
        assert summary.read.count + summary.write.count == summary.ops_complete

    def test_same_spec_same_summary(self):
        spec = SweepSpec(
            protocol="fast-crash",
            scenario="fault-burst",
            config=CONFIG,
            seed=9,
            latency=UniformLatency(0.5, 1.5),
        )
        assert execute_spec(spec) == execute_spec(spec)

    def test_check_can_be_skipped(self):
        spec = SweepSpec(
            protocol="fast-crash", scenario="smoke", config=CONFIG, seed=1, check=False
        )
        assert execute_spec(spec).atomic_ok is None


class TestBatchRunner:
    def test_serial_results_in_spec_order(self):
        specs = small_matrix(seeds=2)
        result = BatchRunner(specs, parallel=1).run()
        assert [(s.protocol, s.scenario, s.seed) for s in result.summaries] == [
            (s.protocol, s.scenario, s.seed) for s in specs
        ]

    def test_parallel_identical_to_serial(self):
        """The acceptance claim: parallel output is byte-identical."""
        specs = small_matrix(seeds=2)
        serial = BatchRunner(specs, parallel=1).run()
        parallel = BatchRunner(specs, parallel=2).run()
        assert serial.summaries == parallel.summaries
        assert serial.render() == parallel.render()
        assert serial.to_json() == parallel.to_json()

    def test_grouped_merges_counts(self):
        specs = small_matrix(seeds=3)
        result = BatchRunner(specs).run()
        groups = result.grouped()
        assert len(groups) == 4  # 2 protocols x 2 scenarios
        for group in groups:
            assert group["runs"] == 3
            runs = [
                s for s in result.summaries
                if (s.protocol, s.scenario) == (group["protocol"], group["scenario"])
            ]
            assert group["ops_complete"] == sum(r.ops_complete for r in runs)
            assert group["read"].count == sum(r.read.count for r in runs)

    def test_all_ok_flags_violations(self):
        specs = small_matrix(seeds=1)
        result = BatchRunner(specs).run()
        assert result.all_ok

    def test_render_has_no_wallclock(self):
        # two runs of the same matrix must render identically even
        # though their wall-clock timings differ
        specs = small_matrix(seeds=1)
        assert BatchRunner(specs).run().render() == BatchRunner(specs).run().render()

    def test_elapsed_recorded_separately(self):
        result = BatchRunner(small_matrix(seeds=1)).run()
        assert result.elapsed > 0.0
