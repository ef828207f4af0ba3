"""Tests for the oracle adapter, shrinking and counterexample artifacts."""

import pytest

from repro.errors import ScheduleError
from repro.explore import (
    Counterexample,
    ExploreScenario,
    Oracle,
    ScheduleDriver,
    build_counterexample,
    replay_counterexample,
    shrink_schedule,
)
from repro.registers.base import ClusterConfig

#: A deliberately padded violating schedule for the naive MWMR strawman
#: at S=2, t=1 (quorum 1): the write completes at s1, the read queries
#: s2 and returns ⊥.  The padding (w2's write, stale serves) must all
#: shrink away.
PADDED = [
    "invoke:w2",
    "serve:w2#1:s1",
    "serve:w2#1:s2",
    "invoke:w1",
    "serve:w1#1:s1",
    "serve:w1#1:s2",
    "invoke:r1",
    "serve:r1#1:s2",
]


def scenario():
    return ExploreScenario(
        "naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2)
    )


class TestOracle:
    def test_judges_through_the_online_pipeline(self):
        driver = ScheduleDriver(scenario())
        driver.run(PADDED)
        oracle = Oracle.for_scenario(scenario())
        verdict = oracle.judge(driver.history)
        assert not verdict.ok
        assert verdict.property_name.startswith("linearizability")

    def test_property_selection(self):
        regular = ExploreScenario("regular-fast", ClusterConfig(S=3, t=1, R=1))
        assert Oracle.for_scenario(regular).property_name == "regular"
        atomic = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        assert Oracle.for_scenario(atomic).property_name == "atomic"

    def test_unknown_property_rejected(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            Oracle("fastness", single_writer=True)


class TestShrinking:
    def test_shrinks_to_one_minimal_schedule(self):
        oracle = Oracle.for_scenario(scenario())
        shrunk = shrink_schedule(scenario(), PADDED, oracle)
        assert len(shrunk) < len(PADDED)
        # 1-minimality: dropping any single remaining action loses the
        # violation
        from repro.explore.oracle import _lenient_run

        for index in range(len(shrunk)):
            candidate = shrunk[:index] + shrunk[index + 1:]
            _, still_violating = _lenient_run(scenario(), candidate, oracle)
            assert not still_violating, (
                f"dropping {shrunk[index]} kept the violation: not minimal"
            )

    def test_refuses_to_shrink_passing_schedule(self):
        oracle = Oracle.for_scenario(scenario())
        with pytest.raises(ScheduleError):
            shrink_schedule(scenario(), ["invoke:w1"], oracle)


class TestCounterexampleArtifacts:
    def test_json_round_trip_is_lossless(self):
        oracle = Oracle.for_scenario(scenario())
        ce = build_counterexample(
            scenario(), PADDED, oracle, provenance={"mode": "test"}
        )
        restored = Counterexample.from_json(ce.to_json())
        assert restored.to_json() == ce.to_json()
        assert restored.scenario == ce.scenario
        assert restored.key() == ce.key()

    def test_replay_detects_tampered_history(self):
        oracle = Oracle.for_scenario(scenario())
        ce = build_counterexample(scenario(), PADDED, oracle)
        ce.history.operations[-1].result = "42"  # corrupt the artifact
        report = replay_counterexample(ce)
        assert not report["history_identical"]
        assert report["violates"]  # the schedule still violates

    def test_replay_rejects_invalid_schedule(self):
        oracle = Oracle.for_scenario(scenario())
        ce = build_counterexample(scenario(), PADDED, oracle)
        ce.schedule.insert(0, "serve:w1#1:s1")  # not enabled at the root
        with pytest.raises(ScheduleError):
            replay_counterexample(ce)

    def test_format_versioned(self):
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError):
            Counterexample.from_dict({"format": "bogus/v9"})


class TestSchemaVersions:
    """`from_dict` regression surface across the v1/v2/v3 lineage."""

    def _artifact(self):
        oracle = Oracle.for_scenario(scenario())
        return build_counterexample(scenario(), PADDED, oracle)

    def test_new_crash_artifact_is_v2_without_accountability(self):
        payload = self._artifact().to_dict()
        # unaudited artifacts never jump to v3
        assert payload["format"] == Counterexample.FORMAT_V2
        assert "accountability" not in payload
        clone = Counterexample.from_dict(payload)
        assert clone.to_dict() == payload
        assert clone.accountability is None

    def test_v1_payload_round_trips_unchanged(self):
        payload = self._artifact().to_dict()
        payload["format"] = Counterexample.FORMAT_V1
        clone = Counterexample.from_dict(payload)
        assert clone.format_version == Counterexample.FORMAT_V1
        assert clone.to_dict() == payload

    def test_v2_byzantine_artifact_round_trips(self):
        from repro.explore import explore

        byz = ExploreScenario(
            "fast-byzantine",
            ClusterConfig(S=3, t=1, R=1, b=1),
            byzantine_budget=1,
        )
        result = explore(byz, depth=6, max_transitions=100_000)
        ce = result.counterexamples[0]
        payload = ce.to_dict()
        payload["format"] = Counterexample.FORMAT_V2
        payload.pop("accountability", None)
        clone = Counterexample.from_dict(payload)
        assert clone.format_version == Counterexample.FORMAT_V2
        assert clone.accountability is None

    def test_v3_artifact_keeps_its_accountability_section(self):
        from repro.explore import explore

        byz = ExploreScenario(
            "fast-byzantine",
            ClusterConfig(S=3, t=1, R=1, b=1),
            byzantine_budget=1,
        )
        ce = explore(byz, depth=6, max_transitions=100_000).counterexamples[0]
        assert ce.format_version == Counterexample.FORMAT_V3
        clone = Counterexample.from_dict(ce.to_dict())
        assert clone.accountability == ce.accountability
        assert clone.to_json() == ce.to_json()

    def test_future_schema_named_clearly(self):
        from repro.errors import SpecificationError

        with pytest.raises(
            SpecificationError, match="unsupported counterexample schema"
        ) as excinfo:
            Counterexample.from_dict({"format": "repro-counterexample/v9"})
        assert "newer build" in str(excinfo.value)

    def test_foreign_format_named_clearly(self):
        from repro.errors import SpecificationError

        with pytest.raises(
            SpecificationError, match="not a counterexample artifact"
        ):
            Counterexample.from_dict({"format": "repro-load-report/v1"})
        with pytest.raises(
            SpecificationError, match="not a counterexample artifact"
        ):
            Counterexample.from_dict({})

    def test_missing_fields_are_all_named_at_once(self):
        """Each used to surface as the bare ``KeyError`` argument of
        whichever subscript came first (`explore: scenario`)."""
        from repro.errors import SpecificationError

        payload = self._artifact().to_dict()
        del payload["scenario"], payload["history"], payload["verdict"]["reason"]
        with pytest.raises(SpecificationError) as excinfo:
            Counterexample.from_dict(payload)
        assert str(excinfo.value) == (
            "counterexample artifact lacks scenario, history, verdict.reason"
        )

    def test_pre_v3_payload_with_accountability_rejected(self):
        from repro.errors import SpecificationError

        payload = self._artifact().to_dict()
        payload["accountability"] = {"verdict": "fraud-proof", "proof": None}
        with pytest.raises(
            SpecificationError, match="cannot carry an accountability"
        ):
            Counterexample.from_dict(payload)
