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
* a key is small and flat, and the memo's summary counts what the
  search stored;
* ``repro explore`` runs the serial search the ledger times, with the
  ledger's numbers.
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


class TestMemoSummary:
    SCENARIO = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))

    def test_summary_counts_what_the_search_stored(self, monkeypatch):
        answers = []
        lookup = Memo.lookup

        def counted(memo, *args):
            answers.append(lookup(memo, *args))
            return answers[-1]

        monkeypatch.setattr(Memo, "lookup", counted)
        result = explore(self.SCENARIO, depth=8)
        summary = result.memo
        assert summary["states"] > 0
        assert summary["variants"] >= summary["states"]
        # the search's one hit counter counts exactly the memo's answers
        hits = sum(answer is not None for answer in answers)
        assert result.stats.memo_hits == hits > 0
        assert set(summary) == {"states", "variants", "parts"}
        # hash-consing: far fewer distinct parts than state x entity
        assert summary["parts"] < summary["states"]
        assert not explore(self.SCENARIO, depth=8, memoize=False).memo


class TestTheCliRunsTheLedgersSearch:
    """``repro explore`` is the serial ``explore()`` the ledger times:
    its JSON carries the library call's counts, the ledger's
    ``memo-heavy`` row among them."""

    ARGS = [
        "explore", "--protocol", "fast-crash", "--servers", "4", "--t", "1",
        "--readers", "1", "--format", "json",
    ]

    def _stats(self, capsys, *extra):
        assert main(self.ARGS + list(extra)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete"]
        stats = payload["stats"]
        return stats["schedules"], stats["transitions"], stats["memo_hits"]

    def test_depth_ten_completes_inside_a_tight_budget(self, capsys):
        # 17 transitions of slack: any search doing more work than the
        # serial one is truncated here and exits 3
        assert self._stats(
            capsys, "--depth", "10", "--max-transitions", "7700"
        ) == (32272, 7683, 1132)

    def test_depth_twelve_is_the_ledgers_memo_heavy_row(self, capsys):
        assert self._stats(capsys, "--depth", "12")[:2] == (33504, 5699)
