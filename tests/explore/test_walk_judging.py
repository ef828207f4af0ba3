"""Random walks judge only when an operation settled.

``random_walk`` hands each walk a ``WalkOracle``, which re-judges only
when the history's settled count moved, and reuses the walk's last
verdict as its final one.  The reference here is the plainest possible
walk: the same choices on a driver that judges its history after
*every* step, with a plain ``Oracle`` at every check the walk makes and
a fresh judgement of the final history.  Schedules and verdicts must be
equal on a crash scenario and on a lying Byzantine one, each with
violating walks among them.
"""

import pytest

from repro.explore import ExploreScenario, choices
from repro.explore.choices import RandomChooser, drive, quorum_walk
from repro.explore.driver import ScheduleDriver
from repro.explore.explorer import MIXED, random_walk
from repro.explore.oracle import Oracle
from repro.registers.base import ClusterConfig

WALKS = 60
DEPTH = 16
SEED = 0

SCENARIOS = [
    # crash model: a write quorum below S - t, one server may crash
    ExploreScenario(
        "fast-crash@hasty-writer", ClusterConfig(S=5, t=1, R=2), crash_budget=1
    ),
    # Byzantine model: a lying server and a reader that trusts any ack
    ExploreScenario(
        "fast-byzantine@gullible-reader",
        ClusterConfig(S=4, t=1, R=1, b=1),
        byzantine_budget=1,
    ),
]


def reference_walk(scenario, walk, oracle, monkeypatch):
    """Walk ``walk`` judged after every step; returns (driver, verdict)."""

    class EveryStep(ScheduleDriver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.verdicts = []

        def apply(self, label):
            result = super().apply(label)
            self.verdicts.append(oracle.judge(self.history))
            return result

    monkeypatch.setattr(choices, "ScheduleDriver", EveryStep)
    chooser = RandomChooser(SEED, walk)
    if walk % 2:
        driver = quorum_walk(scenario, chooser, DEPTH, oracle=oracle)
    else:
        driver = drive(scenario, chooser, DEPTH, oracle=oracle)
    monkeypatch.undo()
    final = oracle.judge(driver.history)
    assert not driver.verdicts or driver.verdicts[-1] == final
    return driver, final


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.target)
def test_walks_equal_a_judge_after_every_step_reference(scenario, monkeypatch):
    oracle = Oracle.for_scenario(scenario)
    violations = lies = 0
    for walk in range(WALKS):
        driver, verdict = random_walk(scenario, DEPTH, SEED, walk, MIXED, oracle)
        expect, expect_verdict = reference_walk(scenario, walk, oracle, monkeypatch)
        assert driver.schedule == expect.schedule, f"walk {walk}"
        assert verdict == expect_verdict, f"walk {walk}"
        violations += not verdict.ok
        lies += any(label.startswith("lie:") for label in driver.schedule)
    assert violations > 0
    assert lies > 0 or "byzantine" not in scenario.target


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.target)
def test_a_verdict_only_moves_when_an_operation_settles(scenario, monkeypatch):
    """The soundness argument itself, checked step by step: between two
    steps that settle no operation, the every-step verdict is unchanged."""
    oracle = Oracle.for_scenario(scenario)
    for walk in range(WALKS):
        driver, _ = reference_walk(scenario, walk, oracle, monkeypatch)
        replay = ScheduleDriver(scenario)
        settled = replay.history.settled
        for label, verdict in zip(driver.schedule, driver.verdicts):
            before = oracle.judge(replay.history)
            replay.apply(label)
            if replay.history.settled == settled:
                assert verdict == before, f"walk {walk} at {label}"
            settled = replay.history.settled


def test_walk_oracle_judges_once_per_settled_count(monkeypatch):
    scenario = SCENARIOS[0]
    calls = []
    judge = Oracle.judge
    monkeypatch.setattr(
        Oracle, "judge", lambda self, history: calls.append(1) or judge(self, history)
    )
    oracle = Oracle.for_scenario(scenario)
    for walk in range(WALKS):
        calls.clear()
        driver, _ = random_walk(scenario, DEPTH, SEED, walk, MIXED, oracle)
        # one verdict per settled count the walk passed through, plus at
        # most one for the history before anything settled
        assert len(calls) <= driver.history.settled + 1, f"walk {walk}"
