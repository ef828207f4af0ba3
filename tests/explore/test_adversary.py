"""Byzantine content choices in the explorer.

The adversary layer's acceptance surface: lie actions obey the
corruption budget, survive snapshot/undo exactly like honest actions,
canonicalise into fingerprints (equal fingerprints ⇒ identical future
lie menus), keep search and replay reference bit-identical, and — the point of it
all — re-derive the Section 6 threshold dynamically: the feasible
region stays clean exhaustively while the beyond-threshold
configuration yields a shrunk, replayable equivocation counterexample.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ScheduleError
from repro.explore import (
    Counterexample,
    ExploreScenario,
    ScheduleDriver,
    explore,
    explore_parallel,
    random_walks,
)
from repro.registers.base import ClusterConfig
from tests.explore._replay_reference import replay_explore

#: Smallest beyond-threshold Byzantine configuration: the Section 6
#: bound needs S > (R+2)t + (R+1)b = 5, so S=3 is fair game.
BEYOND = ClusterConfig(S=3, t=1, R=1, b=1)
#: Smallest feasible configuration at R=1: S=6 > 5.
FEASIBLE = ClusterConfig(S=6, t=1, R=1, b=1)


def byz_scenario(target="fast-byzantine", config=BEYOND, **kwargs):
    kwargs.setdefault("byzantine_budget", 1)
    return ExploreScenario(target, config, **kwargs)


class TestLieEnabledness:
    def test_no_lies_without_byzantine_budget(self):
        driver = ScheduleDriver(
            ExploreScenario("fast-byzantine", ClusterConfig(S=3, t=1, R=1, b=1))
        )
        driver.apply("invoke:w1")
        assert not [a for a in driver.enabled() if a.label.startswith("lie:")]

    def test_menu_appears_per_pending_request_and_strategy(self):
        driver = ScheduleDriver(byz_scenario())
        driver.apply("invoke:w1")
        lies = [a.label for a in driver.enabled() if a.label.startswith("lie:")]
        # 3 servers x default 3-strategy menu
        assert len(lies) == 9
        assert "lie:stale:w1#1:s1" in lies
        assert "lie:forge:w1#1:s3" in lies

    def test_budget_gates_recruitment_but_not_recidivism(self):
        from repro.sim.ids import server

        driver = ScheduleDriver(byz_scenario())
        driver.apply("invoke:w1")
        driver.apply("lie:stale:w1#1:s2")
        assert driver.corrupted == frozenset({server(2)})
        driver.apply("invoke:r1")
        lies = [a.label for a in driver.enabled() if a.label.startswith("lie:")]
        # budget 1 spent on s2: only s2 may keep lying
        assert lies and all(label.endswith(":s2") for label in lies)

    def test_lie_restricted_to_scenario_menu(self):
        driver = ScheduleDriver(byz_scenario(strategies=("stale",)))
        driver.apply("invoke:w1")
        lies = [a.label for a in driver.enabled() if a.label.startswith("lie:")]
        assert lies == [f"lie:stale:w1#1:s{i}" for i in (1, 2, 3)]
        with pytest.raises(ScheduleError, match="menu"):
            driver.apply("lie:forge:w1#1:s1")

    def test_lies_target_only_pending_operations(self):
        driver = ScheduleDriver(byz_scenario(config=FEASIBLE))
        driver.apply("invoke:r1")
        for index in range(1, 6):
            driver.apply(f"serve:r1#1:s{index}")
        assert driver.operation("r1#1").complete
        lies = [a.label for a in driver.enabled() if a.label.startswith("lie:")]
        assert not [label for label in lies if ":r1#1:" in label]

    def test_budget_exhaustion_is_a_strict_replay_error(self):
        driver = ScheduleDriver(byz_scenario())
        driver.apply("invoke:w1")
        driver.apply("lie:stale:w1#1:s1")
        with pytest.raises(ScheduleError, match="budget"):
            driver.apply("lie:stale:w1#1:s2")


class TestScenarioSerialization:
    def test_crash_only_scenarios_keep_v1_shape(self):
        payload = ExploreScenario(
            "fast-crash", ClusterConfig(S=4, t=1, R=1), crash_budget=1
        ).to_dict()
        assert "byzantine_budget" not in payload
        assert "strategies" not in payload

    def test_byzantine_scenarios_round_trip(self):
        scenario = byz_scenario(strategies=("stale", "forge"))
        clone = ExploreScenario.from_dict(scenario.to_dict())
        assert clone == scenario
        assert clone.strategies == ("stale", "forge")

    def test_default_menu_applied_and_serialized(self):
        scenario = byz_scenario()
        assert scenario.strategies  # DEFAULT_MENU filled in
        assert ExploreScenario.from_dict(scenario.to_dict()) == scenario

    def test_budget_beyond_b_rejected(self):
        with pytest.raises(ScheduleError, match="exceeds the model's b"):
            ExploreScenario(
                "fast-byzantine",
                ClusterConfig(S=3, t=1, R=1, b=0),
                byzantine_budget=1,
            )

    def test_menu_without_budget_rejected(self):
        with pytest.raises(ScheduleError, match="Byzantine budget"):
            ExploreScenario(
                "fast-byzantine", BEYOND, strategies=("stale",)
            )


class TestEngineIdentityWithLies:
    def test_bit_identical_with_memo_off(self):
        scenario = byz_scenario()
        stateless = replay_explore(scenario, 5, max_counterexamples=3)
        incremental = explore(
            scenario, 5, memoize=False, max_counterexamples=3
        )
        assert stateless.stats.to_dict() == incremental.stats.to_dict()
        assert [ce.to_json() for ce in stateless.counterexamples] == [
            ce.to_json() for ce in incremental.counterexamples
        ]

    def test_parallel_sharding_covers_the_byzantine_space(self):
        scenario = byz_scenario()
        serial = explore(scenario, 5, memoize=False, max_counterexamples=2)
        sharded = explore_parallel(
            scenario, depth=5, parallel=2, memoize=False,
            max_counterexamples=2,
        )
        assert serial.stats.to_dict() == sharded.stats.to_dict()
        assert [ce.key() for ce in serial.counterexamples] == [
            ce.key() for ce in sharded.counterexamples
        ]


class TestSectionSixThreshold:
    """`repro explore --target fast-byzantine` re-derives the bound."""

    def test_beyond_threshold_yields_equivocation_counterexample(self):
        result = explore(byz_scenario(), depth=6, max_transitions=100_000)
        assert result.found_violation
        ce = result.counterexamples[0]
        assert any(label.startswith("lie:") for label in ce.schedule)
        assert ce.format_version == Counterexample.FORMAT_V3
        # shrunk: 1-minimal schedules for this shape are 6 actions
        assert len(ce.schedule) <= 6
        # and byte-exact replayable, certificate included
        from repro.explore import replay_counterexample

        assert replay_counterexample(ce) == {
            "history_identical": True,
            "verdict_identical": True,
            "violates": True,
            "accountability_identical": True,
            "certificate_verifies": True,
        }

    def test_beyond_threshold_certificate_names_the_corrupted_server(self):
        from repro.accountability import verify_fraud_proof

        result = explore(byz_scenario(), depth=6, max_transitions=100_000)
        ce = result.counterexamples[0]
        assert ce.accountability is not None
        assert ce.accountability["verdict"] == "fraud-proof"
        proof = ce.accountability["proof"]
        assert verify_fraud_proof(proof)
        corrupted = {
            label.split(":")[-1]
            for label in ce.schedule
            if label.startswith("lie:")
        }
        assert {proof["accused"]} == corrupted

    def test_feasible_region_exhaustively_clean(self):
        result = explore(
            byz_scenario(config=FEASIBLE), depth=5, max_transitions=500_000
        )
        assert result.complete
        assert not result.found_violation

    def test_gullible_reader_loses_to_one_forged_tag(self):
        result = explore(
            byz_scenario("fast-byzantine@gullible-reader", FEASIBLE,
                         strategies=("forge",)),
            depth=7,
            max_transitions=50_000,
        )
        assert result.found_violation
        assert any(
            label.startswith("lie:forge:")
            for label in result.counterexamples[0].schedule
        )

    def test_crash_predicate_reader_starves_under_stale_lies(self):
        # needs a completed write + a lying read quorum: depth 12, found
        # by the lie-aware quorum walks rather than exhaustion
        result = random_walks(
            byz_scenario("fast-byzantine@crash-predicate", FEASIBLE,
                         strategies=("stale",)),
            depth=16,
            walks=400,
            seed=1,
            policy="quorum",
        )
        assert result.found_violation
        assert any(
            label.startswith("lie:stale:")
            for label in result.counterexamples[0].schedule
        )

    def test_faithful_protocol_survives_the_same_walks(self):
        result = random_walks(
            byz_scenario(config=FEASIBLE), depth=16, walks=400, seed=1,
            policy="quorum",
        )
        assert not result.found_violation


class TestCounterexampleSchemaV2:
    def test_v2_round_trips_byzantine_artifacts(self):
        result = explore(byz_scenario(), depth=6, max_transitions=100_000)
        ce = result.counterexamples[0]
        clone = Counterexample.from_json(ce.to_json())
        assert clone.to_json() == ce.to_json()
        assert clone.scenario.byzantine_budget == 1

    def test_v1_payload_with_adversary_content_rejected(self):
        result = explore(byz_scenario(), depth=6, max_transitions=100_000)
        payload = result.counterexamples[0].to_dict()
        payload["format"] = Counterexample.FORMAT_V1
        from repro.errors import SpecificationError

        with pytest.raises(SpecificationError, match="v1 counterexamples"):
            Counterexample.from_dict(payload)


# ----------------------------------------------------------------------
# hypothesis: equivocation actions under snapshot/undo and fingerprints

BYZ_SCENARIOS = st.sampled_from(
    [
        byz_scenario(),
        byz_scenario(strategies=("stale", "silent")),
        byz_scenario(
            config=ClusterConfig(S=3, t=1, R=2, b=1), crash_budget=1
        ),
    ]
)


def _walk(driver, data, steps, label):
    taken = []
    for _ in range(steps):
        actions = driver.enabled()
        if not actions:
            break
        index = data.draw(st.integers(0, len(actions) - 1), label=label)
        driver.apply(actions[index].label)
        taken.append(actions[index].label)
    return taken


def _lie_walk(driver, data, steps):
    """Like :func:`_walk` but biased to pick lie actions when enabled."""
    taken = []
    for _ in range(steps):
        actions = driver.enabled()
        if not actions:
            break
        lies = [a for a in actions if a.label.startswith("lie:")]
        pool = lies if lies and data.draw(st.booleans(), label="lie?") else actions
        index = data.draw(st.integers(0, len(pool) - 1), label="pick")
        driver.apply(pool[index].label)
        taken.append(pool[index].label)
    return taken


def _observable_state(driver):
    return (
        driver.fingerprint(),
        tuple(action.label for action in driver.enabled()),
        driver.history.to_json(),
        tuple(driver.schedule),
        driver.corrupted,
        driver.crashes_used,
    )


class TestEquivocationUndoRoundTrip:
    @given(data=st.data(), scenario=BYZ_SCENARIOS)
    @settings(max_examples=40, deadline=None)
    def test_lie_schedules_replay_deterministically(self, data, scenario):
        """A schedule with lies is a pure function of its labels: a
        fresh driver replaying it reaches the identical state — with or
        without the undo journal's caches."""
        driver = ScheduleDriver(scenario, undo=True)
        _lie_walk(driver, data, data.draw(st.integers(0, 7), label="len"))
        replica = ScheduleDriver(scenario)
        replica.run(driver.schedule)
        assert replica.fingerprint() == driver.fingerprint()
        assert replica.corrupted == driver.corrupted
        assert replica.history.to_json() == driver.history.to_json()

    @given(data=st.data(), scenario=BYZ_SCENARIOS)
    @settings(max_examples=40, deadline=None)
    def test_mark_undo_round_trip_with_lies(self, data, scenario):
        driver = ScheduleDriver(scenario, undo=True)
        _lie_walk(driver, data, data.draw(st.integers(0, 4), label="prefix"))
        before = _observable_state(driver)
        mark = driver.mark()
        suffix = _lie_walk(driver, data, data.draw(st.integers(1, 5), label="s"))
        driver.undo(mark)
        assert _observable_state(driver) == before
        if suffix:
            driver.apply(suffix[0])
            driver.undo(mark)
            assert _observable_state(driver) == before


class TestFingerprintLieMenus:
    @given(data=st.data(), scenario=BYZ_SCENARIOS)
    @settings(max_examples=40, deadline=None)
    def test_equal_fingerprints_imply_identical_lie_menus(self, data, scenario):
        """The memo soundness contract, extended to content choices:
        states that fingerprint equally expose the same ``lie:…`` menu
        now and after any common suffix."""
        first = ScheduleDriver(scenario, undo=True)
        _lie_walk(first, data, data.draw(st.integers(0, 6), label="a"))
        second = ScheduleDriver(scenario, undo=True)
        _lie_walk(second, data, data.draw(st.integers(0, 6), label="b"))
        if first.fingerprint() != second.fingerprint():
            return

        def lie_menu(driver):
            return sorted(
                a.label for a in driver.enabled() if a.label.startswith("lie:")
            )

        assert lie_menu(first) == lie_menu(second)
        for _ in range(3):
            actions = first.enabled()
            if not actions:
                break
            index = data.draw(st.integers(0, len(actions) - 1), label="c")
            first.apply(actions[index].label)
            second.apply(actions[index].label)
            assert first.fingerprint() == second.fingerprint()
            assert lie_menu(first) == lie_menu(second)

    @given(data=st.data(), scenario=BYZ_SCENARIOS)
    @settings(max_examples=40, deadline=None)
    def test_corruption_state_distinguishes_fingerprints(self, data, scenario):
        """Two states that differ in which servers were corrupted must
        never fingerprint equally (the future lie menus differ)."""
        first = ScheduleDriver(scenario, undo=True)
        _lie_walk(first, data, data.draw(st.integers(0, 6), label="a"))
        second = ScheduleDriver(scenario, undo=True)
        _lie_walk(second, data, data.draw(st.integers(0, 6), label="b"))
        if first.corrupted != second.corrupted:
            assert first.fingerprint() != second.fingerprint()
