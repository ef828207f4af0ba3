"""Tests for the exception hierarchy and package metadata."""

import pytest

import repro
from repro import errors


class TestHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in (
            "ConfigurationError",
            "SimulationError",
            "ScheduleError",
            "ProtocolError",
            "SpecificationError",
            "SignatureError",
            "InfeasibleConstructionError",
        ):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_schedule_error_is_simulation_error(self):
        assert issubclass(errors.ScheduleError, errors.SimulationError)

    def test_event_budget_is_a_simulation_and_a_runtime_error(self):
        assert issubclass(errors.EventBudgetExceeded, errors.SimulationError)
        assert issubclass(errors.EventBudgetExceeded, RuntimeError)

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.ConfigurationError("bad")


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_key_entry_points_importable(self):
        from repro import (
            ClusterConfig,
            run_byzantine_lower_bound,
            run_crash_lower_bound,
            run_mwmr_impossibility,
            run_workload,
        )

        assert callable(run_workload)
        assert callable(run_crash_lower_bound)
        assert callable(run_byzantine_lower_bound)
        assert callable(run_mwmr_impossibility)
        assert ClusterConfig(S=3, t=1, R=1).quorum == 2

    def test_protocol_registry_exposed(self):
        assert "fast-crash" in repro.PROTOCOLS
        assert "semifast" in repro.PROTOCOLS
