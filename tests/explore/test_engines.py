"""Differential and property tests for the exhaustive search.

The search (undo journal + fingerprint memo; ``incremental`` below)
must be *observably identical* to the prefix-replaying reference in
``_replay_reference.py`` (``stateless`` below):

* with memoization off, stats, verdicts, counterexample artifacts and
  completeness are bit-identical across every registry target and
  ablation at bounded depth;
* with memoization on, the found-violation verdict never changes (the
  memo stores only clean, fully-explored subtrees);
* the snapshot/undo protocol round-trips the driver exactly under
  arbitrary action sequences (hypothesis drives the choice-point API);
* fingerprint equality is behaviourally sound: equal fingerprints mean
  equal enabled actions and futures that stay fingerprint-equal under a
  common schedule suffix.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.explore import (
    ExploreScenario,
    ScheduleDriver,
    TransitionBudget,
    explore,
)
from repro.registers.base import ClusterConfig
from tests.explore._replay_reference import replay_explore

#: One bounded configuration per explorable target: every registry
#: protocol plus every ablation, at a depth each finishes in well under
#: a second so the differential matrix stays cheap.
DIFFERENTIAL_CASES = [
    ("fast-crash", ClusterConfig(S=4, t=1, R=1), {}, 5),
    ("fast-byzantine", ClusterConfig(S=7, t=2, R=1, b=1), {}, 4),
    ("abd", ClusterConfig(S=3, t=1, R=1), {}, 5),
    ("maxmin", ClusterConfig(S=3, t=1, R=1), {}, 5),
    ("swsr-fast", ClusterConfig(S=3, t=1, R=1), {"crash_budget": 1}, 6),
    ("regular-fast", ClusterConfig(S=3, t=1, R=1), {}, 5),
    ("semifast", ClusterConfig(S=5, t=1, R=2), {}, 4),
    ("mwmr", ClusterConfig(S=3, t=1, R=1, W=2), {}, 4),
    ("naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2), {}, 7),
    ("fast-crash@eager-reader", ClusterConfig(S=3, t=1, R=2), {}, 5),
    ("fast-crash@timid-reader", ClusterConfig(S=4, t=1, R=1), {}, 6),
    ("fast-crash@no-seen-reset", ClusterConfig(S=4, t=1, R=2), {}, 5),
    ("fast-crash@no-counter", ClusterConfig(S=4, t=1, R=1), {}, 5),
    ("fast-crash@hasty-writer", ClusterConfig(S=4, t=1, R=2), {}, 5),
    # adversary content choices: the lie:… action space must stay
    # engine-identical too
    (
        "fast-byzantine",
        ClusterConfig(S=3, t=1, R=1, b=1),
        {"byzantine_budget": 1},
        4,
    ),
    (
        "fast-byzantine@gullible-reader",
        ClusterConfig(S=4, t=1, R=1, b=1),
        {"byzantine_budget": 1, "strategies": ("forge", "silent")},
        4,
    ),
]

CASE_IDS = [
    case[0] + ("+lies" if case[2].get("byzantine_budget") else "")
    for case in DIFFERENTIAL_CASES
]


def _scenario(target, config, kwargs) -> ExploreScenario:
    return ExploreScenario(target, config, **kwargs)


class TestEngineIdentity:
    @pytest.mark.parametrize(
        "target,config,kwargs,depth", DIFFERENTIAL_CASES, ids=CASE_IDS
    )
    def test_incremental_matches_stateless_bit_for_bit(
        self, target, config, kwargs, depth
    ):
        scenario = _scenario(target, config, kwargs)
        stateless = replay_explore(scenario, depth, max_counterexamples=3)
        incremental = explore(
            scenario, depth, memoize=False, max_counterexamples=3
        )
        assert stateless.stats.to_dict() == incremental.stats.to_dict()
        assert stateless.complete == incremental.complete
        assert [ce.to_json() for ce in stateless.counterexamples] == [
            ce.to_json() for ce in incremental.counterexamples
        ]

    @pytest.mark.parametrize(
        "target,config,kwargs,depth", DIFFERENTIAL_CASES, ids=CASE_IDS
    )
    def test_memoization_preserves_the_verdict(
        self, target, config, kwargs, depth
    ):
        scenario = _scenario(target, config, kwargs)
        memoized = explore(scenario, depth, memoize=True)
        reference = replay_explore(scenario, depth)
        assert memoized.found_violation == reference.found_violation
        assert memoized.complete == reference.complete
        if memoized.found_violation:
            # Counterexamples are found in DFS order, which memoization
            # never changes (only clean subtrees are skipped): the first
            # artifact is the same schedule.
            assert (
                memoized.counterexamples[0].schedule
                == reference.counterexamples[0].schedule
            )


class TestSharedBudget:
    def test_budget_object_is_shared_across_calls(self):
        scenario = _scenario("fast-crash", ClusterConfig(S=4, t=1, R=1), {})
        budget = TransitionBudget(300)
        first = explore(scenario, 6, budget=budget)
        second = explore(scenario, 6, budget=budget)
        assert not first.complete or not second.complete
        assert budget.exhausted
        assert first.stats.transitions + second.stats.transitions < 300

    def test_wall_clock_deadline_truncates(self):
        scenario = _scenario("fast-crash", ClusterConfig(S=5, t=1, R=2), {})
        result = explore(scenario, 12, memoize=False, max_seconds=0.05)
        assert not result.complete


# ----------------------------------------------------------------------
# snapshot/undo and fingerprint properties (hypothesis drives the
# choice-point API)

SCENARIOS = st.sampled_from(
    [
        _scenario("fast-crash", ClusterConfig(S=3, t=1, R=2), {}),
        _scenario(
            "swsr-fast", ClusterConfig(S=3, t=1, R=1), {"crash_budget": 1}
        ),
        _scenario("maxmin", ClusterConfig(S=3, t=1, R=1), {}),
        _scenario("naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2), {}),
        _scenario("fast-byzantine", ClusterConfig(S=4, t=1, R=1, b=1), {}),
        # the adversary's content choices ride the same snapshot/undo
        # and fingerprint machinery
        _scenario(
            "fast-byzantine",
            ClusterConfig(S=3, t=1, R=1, b=1),
            {"byzantine_budget": 1},
        ),
    ]
)


def _walk(driver, data, steps, label):
    """Drive ``steps`` random enabled actions through ``driver``."""
    taken = []
    for _ in range(steps):
        actions = driver.enabled()
        if not actions:
            break
        index = data.draw(
            st.integers(0, len(actions) - 1), label=label
        )
        driver.apply(actions[index].label)
        taken.append(actions[index].label)
    return taken


def _observable_state(driver):
    """Everything the round-trip must restore exactly."""
    return (
        driver.fingerprint(),
        tuple(action.label for action in driver.enabled()),
        driver.history.to_json(),
        tuple(driver.schedule),
        driver.execution.now,
        driver.crashes_used,
        driver.responses(),
    )


class TestSnapshotUndoRoundTrip:
    @given(data=st.data(), scenario=SCENARIOS)
    @settings(max_examples=50, deadline=None)
    def test_undo_restores_the_exact_state(self, data, scenario):
        driver = ScheduleDriver(scenario, undo=True)
        _walk(driver, data, data.draw(st.integers(0, 6), label="prefix"), "p")
        before = _observable_state(driver)
        mark = driver.mark()
        suffix = _walk(
            driver, data, data.draw(st.integers(1, 6), label="suffix"), "s"
        )
        driver.undo(mark)
        assert _observable_state(driver) == before
        # the mark survives repeated undo/redo cycles
        if suffix:
            driver.apply(suffix[0])
            driver.undo(mark)
            assert _observable_state(driver) == before

    @given(data=st.data(), scenario=SCENARIOS)
    @settings(max_examples=30, deadline=None)
    def test_nested_marks_unwind_in_lifo_order(self, data, scenario):
        driver = ScheduleDriver(scenario, undo=True)
        states, marks = [], []
        for _ in range(3):
            states.append(_observable_state(driver))
            marks.append(driver.mark())
            if not _walk(driver, data, 2, "n"):
                break
        for mark, state in zip(reversed(marks), reversed(states)):
            driver.undo(mark)
            assert _observable_state(driver) == state


class TestFingerprintSoundness:
    @given(data=st.data(), scenario=SCENARIOS)
    @settings(max_examples=50, deadline=None)
    def test_same_schedule_same_fingerprint(self, data, scenario):
        """Fingerprints are a pure function of the schedule — identical
        across drivers, with and without the undo journal's caches."""
        driver = ScheduleDriver(scenario, undo=True)
        schedule = _walk(
            driver, data, data.draw(st.integers(0, 8), label="len"), "w"
        )
        replica = ScheduleDriver(scenario)
        replica.run(schedule)
        assert driver.fingerprint() == replica.fingerprint()

    @given(data=st.data(), scenario=SCENARIOS)
    @settings(max_examples=40, deadline=None)
    def test_equal_fingerprints_have_equal_futures(self, data, scenario):
        """The memo's soundness contract: if two reachable states
        fingerprint equally, they enable the same actions and a common
        suffix keeps them fingerprint-equal (futures indistinguishable).
        """
        first = ScheduleDriver(scenario, undo=True)
        _walk(first, data, data.draw(st.integers(0, 7), label="a"), "a")
        second = ScheduleDriver(scenario, undo=True)
        _walk(second, data, data.draw(st.integers(0, 7), label="b"), "b")
        if first.fingerprint() != second.fingerprint():
            return  # property is conditional on a fingerprint collision
        labels_a = [action.label for action in first.enabled()]
        labels_b = [action.label for action in second.enabled()]
        assert labels_a == labels_b
        for _ in range(4):
            actions = first.enabled()
            if not actions:
                break
            index = data.draw(st.integers(0, len(actions) - 1), label="c")
            first.apply(actions[index].label)
            second.apply(actions[index].label)
            assert first.fingerprint() == second.fingerprint()

    @given(data=st.data(), scenario=SCENARIOS)
    @settings(max_examples=40, deadline=None)
    def test_distinct_observable_state_distinct_fingerprint(
        self, data, scenario
    ):
        """Injectivity on observables: drivers that differ in enabled
        actions, or in any time-free view of their histories, must never
        fingerprint equally.  (Raw times are excluded on purpose — the
        fingerprint rank-normalises them.)"""

        def observables(driver):
            return (
                tuple(action.label for action in driver.enabled()),
                tuple(
                    (op.proc, op.kind, op.value, op.result, op.complete)
                    for op in driver.history.operations
                ),
                driver.crashes_used,
            )

        first = ScheduleDriver(scenario, undo=True)
        _walk(first, data, data.draw(st.integers(0, 7), label="a"), "a")
        second = ScheduleDriver(scenario, undo=True)
        _walk(second, data, data.draw(st.integers(0, 7), label="b"), "b")
        if observables(first) != observables(second):
            assert first.fingerprint() != second.fingerprint()
