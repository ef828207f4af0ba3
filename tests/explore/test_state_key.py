"""The memo's state key is pinned to ``fingerprint()``.

``ScheduleDriver.fingerprint()`` is the specification of state identity;
``state_key()`` is what the exhaustive search actually hashes — a flat
tuple of ids into the search's ``StateTable``.  These tests hold the two
together:

* ``expand(state_key()) == fingerprint()`` after every step of random
  apply / mark / undo / redo walks, and two drivers sharing one table
  agree on ``key_a == key_b ⇔ fingerprint_a == fingerprint_b``;
* ``fingerprint()`` itself still returns what the parent commit returned
  (golden digests over corpus counterexample prefixes);
* a key is small and flat, and never outlives its table's process:
  ``Memo.hottest`` exports fingerprints, ``Memo(base=…)`` re-interns;
* the sharded path gives the serial path's numbers (the pin a per-driver
  table would break while still passing every serial count).
"""

import hashlib
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ScheduleError
from repro.explore import (
    Counterexample,
    ExploreScenario,
    Memo,
    ScheduleDriver,
    explore,
    explore_parallel,
)
from repro.explore.driver import StateTable
from repro.registers.base import ClusterConfig

SCENARIOS = st.sampled_from(
    [
        ExploreScenario(
            "swsr-fast", ClusterConfig(S=3, t=1, R=1), crash_budget=1
        ),
        ExploreScenario("fast-crash", ClusterConfig(S=3, t=1, R=2)),
        # lies armed: corrupted replies are substituted envelopes, and
        # the corruption set is part of the driver's own part
        ExploreScenario(
            "fast-byzantine", ClusterConfig(S=3, t=1, R=1, b=1), byzantine_budget=1
        ),
        ExploreScenario("naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2)),
    ]
)


def _wander(driver, data, steps, label):
    """Random apply / mark / undo / redo; yields after every move."""
    marks = []
    for _ in range(steps):
        actions = driver.enabled()
        move = data.draw(st.integers(0, 3), label=f"{label}-move")
        if move == 0 and marks:
            mark, redo = marks.pop()
            driver.undo(mark)
            if redo is not None and data.draw(st.booleans(), label=f"{label}-redo"):
                driver.apply(redo)
        elif actions:
            pick = actions[
                data.draw(st.integers(0, len(actions) - 1), label=f"{label}-pick")
            ]
            marks.append((driver.mark(), pick.label))
            driver.apply(pick.label)
        yield


class TestKeyIsPinnedToFingerprint:
    @given(data=st.data(), scenario=SCENARIOS)
    @settings(max_examples=60, deadline=None)
    def test_key_expands_to_the_fingerprint_after_every_move(self, data, scenario):
        table = StateTable()
        driver = ScheduleDriver(scenario, states=table)
        seen = {}
        for _ in _wander(driver, data, 14, "w"):
            key, fingerprint = driver.state_key(), driver.fingerprint()
            assert table.expand(key) == fingerprint
            assert table.key_of(fingerprint) == key
            assert seen.setdefault(key, fingerprint) == fingerprint

    @given(data=st.data(), scenario=SCENARIOS)
    @settings(max_examples=40, deadline=None)
    def test_two_drivers_on_one_table_agree_on_equality(self, data, scenario):
        table = StateTable()
        first = ScheduleDriver(scenario, undo=True, states=table)
        second = ScheduleDriver(scenario, undo=True, states=table)
        walk_b = _wander(second, data, 10, "b")
        for _ in _wander(first, data, 10, "a"):
            next(walk_b, None)
            assert (first.state_key() == second.state_key()) == (
                first.fingerprint() == second.fingerprint()
            )

    @given(data=st.data(), scenario=SCENARIOS)
    @settings(max_examples=40, deadline=None)
    def test_key_is_flat_small_ints_bounded_by_what_exists(self, data, scenario):
        driver = ScheduleDriver(scenario, undo=True, states=StateTable())
        for _ in _wander(driver, data, 10, "k"):
            key = driver.state_key()
            assert all(type(item) is int for item in key)
            assert len(key) == (
                3
                + len(driver.execution.processes)
                + len(driver.execution.network.transit)
            )

    def test_a_table_implies_the_undo_journal_and_a_key_needs_a_table(self):
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=3, t=1, R=1))
        assert ScheduleDriver(scenario, states=StateTable()).undo_enabled
        with pytest.raises(ScheduleError, match="StateTable"):
            ScheduleDriver(scenario, undo=True).state_key()


CORPUS = pathlib.Path(__file__).parent.parent / "data" / "counterexamples"

#: sha256 over ``repr(fingerprint())`` of every schedule prefix, recorded
#: at the parent commit (where ``fingerprint()`` was also the memo key).
GOLDEN = {
    "fast-crash-3c336996ff": "8b83d3567e5eccc5",
    "fast-byzantine-124b04f3b6": "e51e8d5aad013a11",
    "naive-fast-mwmr-abec155f33": "c57c5f377a65b32a",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("undo", [False, True], ids=["replay", "undo"])
def test_fingerprint_is_the_parent_commits_tuple(name, undo):
    ce = Counterexample.from_json((CORPUS / f"{name}.json").read_text())
    driver = ScheduleDriver(ce.scenario, undo=undo)
    digest = hashlib.sha256(repr(driver.fingerprint()).encode())
    for label in ce.schedule:
        driver.apply(label)
        digest.update(repr(driver.fingerprint()).encode())
    assert digest.hexdigest()[:16] == GOLDEN[name]


class TestKeysStayInTheirProcess:
    SCENARIO = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))

    def test_hottest_exports_fingerprints_and_a_base_is_reinterned(self):
        memo = Memo()
        explore(self.SCENARIO, depth=8, memo=memo)
        exported = memo.hottest(50)
        assert len(exported) == 50
        other = Memo(base=exported)
        renumbered = 0
        for fingerprint, entries in exported.items():
            assert len(fingerprint) == 6  # a fingerprint, not a key
            sleep_labels, depth_left, _schedules, _rel_depth = entries[0]
            key = other.states.key_of(fingerprint)
            renumbered += key != memo.states.key_of(fingerprint)
            hit, from_base = other.lookup(key, sleep_labels, depth_left)
            assert from_base and hit == entries[0]
        assert other.summary()["base_hits"] == 50
        # the two tables number the same parts differently, which is why
        # a key may not cross from one memo to another
        assert renumbered > 0

    def test_summary_counts_what_the_search_stored(self):
        memo = Memo()
        result = explore(self.SCENARIO, depth=8, memo=memo)
        summary = memo.summary()
        assert result.memo == summary
        assert summary["states"] == len(memo.table) > 0
        assert summary["variants"] >= summary["states"]
        assert summary["local_hits"] == result.stats.memo_hits
        assert summary["base_hits"] == result.stats.shared_memo_hits == 0
        # hash-consing: far fewer distinct parts than state x entity
        assert summary["parts"] < summary["states"]
        assert not explore(self.SCENARIO, depth=8, memoize=False).memo


class TestShardedSearchKeepsItsNumbers:
    """Serial counts alone cannot see a table that is private to each
    driver: ids would differ between the probe and the shards, the base
    would never hit, and both worker counts would be wrong alike."""

    ARGS = [
        "explore", "--protocol", "fast-crash", "--servers", "4", "--t", "1",
        "--readers", "1", "--depth", "10", "--format", "json",
    ]

    def test_depth_ten_counts_and_bytes_for_one_and_two_workers(self, capsys):
        outputs = []
        for workers in ("1", "2"):
            assert main(self.ARGS + ["--parallel", workers]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        stats = json.loads(outputs[0])["stats"]
        assert (
            stats["schedules"], stats["transitions"], stats["shared_memo_hits"]
        ) == (32272, 7734, 40)

    def test_library_call_agrees_and_reports_the_base_hits(self):
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        result = explore_parallel(scenario, depth=10, parallel=1)
        assert result.stats.shared_memo_hits == 40 == result.memo["base_hits"]
        assert result.stats.memo_hits == result.memo["local_hits"]
