"""The package-level surface is the stable API: it must resolve, and the
one-call entry points must work end to end."""

import pytest

import repro
from repro import (
    ClusterConfig,
    Runtime,
    ScriptedExecution,
    Simulation,
    check_history,
    get_scenario,
    run_scenario,
)


class TestSurface:
    def test_all_names_resolve(self):
        missing = [name for name in repro.__all__ if not hasattr(repro, name)]
        assert missing == []

    def test_runtime_seam_implementations(self):
        # Both in-tree sim runtimes implement the seam; so does the
        # socket runtime (imported explicitly, never at package import).
        assert issubclass(Simulation, Runtime)
        assert issubclass(ScriptedExecution, Runtime)
        from repro.net import AsyncRuntime

        assert issubclass(AsyncRuntime, Runtime)

    def test_runtime_is_the_one_base_of_all_three_runtimes(self):
        from repro.net import AsyncRuntime

        for cls in (Simulation, ScriptedExecution, AsyncRuntime):
            assert cls.__bases__ == (Runtime,)
            # Hosting is inherited, never restated.
            for name in ("add_process", "add_processes", "process",
                         "invoke", "on_response", "_responded", "_new_step"):
                assert name not in vars(cls), (cls.__name__, name)


class TestRunScenario:
    def test_named_scenario_end_to_end(self):
        result = run_scenario(
            "abd", ClusterConfig(S=5, t=1, R=3), scenario="contention", seed=3
        )
        assert result.check_atomic().ok
        assert len(result.history) == len(
            result.history.complete_operations
        )

    def test_scenario_crash_plan_is_armed(self):
        # "worst-case-faults" crashes exactly t servers; the run must
        # still terminate and stay atomic.
        config = ClusterConfig(S=5, t=2, R=3)
        result = run_scenario(
            "abd", config, scenario="worst-case-faults", seed=5
        )
        assert result.check_atomic().ok
        assert get_scenario("worst-case-faults").crash_plan(config, 5)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_scenario("abd", ClusterConfig(S=5, t=1, R=2), scenario="nope")


class TestCheckHistory:
    def test_single_writer_report(self):
        result = run_scenario("abd", ClusterConfig(S=5, t=1, R=3), seed=1)
        report = check_history(result.history)
        assert report["ok"] is True
        assert report["single_writer"] is True
        assert set(report["verdicts"]) == {"atomic", "linearizable", "regular"}
        assert all(v.ok for v in report["verdicts"].values())
        assert report["cross_check_ok"] is True
        assert report["inversions"] == 0

    def test_multi_writer_report(self):
        from repro import run_workload

        result = run_workload(
            "mwmr", ClusterConfig(S=5, t=1, R=2, W=2), seed=2
        )
        report = check_history(result.history)
        assert report["single_writer"] is False
        assert set(report["verdicts"]) == {"atomic", "p1p2"}
        assert report["inversions"] is None
        assert report["ok"] is True
