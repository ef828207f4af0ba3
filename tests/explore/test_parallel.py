"""Determinism of the explorer's multiprocess fan-out (random walks)."""

import pytest

from repro.explore import ExploreScenario, random_walks, random_walks_parallel
from repro.registers.base import ClusterConfig


def naive_scenario():
    return ExploreScenario(
        "naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2)
    )


def clean_scenario():
    return ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))


class TestRandomSharding:
    def test_walk_ranges_merge_identically(self):
        scenario = naive_scenario()
        serial = random_walks_parallel(
            scenario, depth=8, walks=60, seed=3, parallel=1,
            max_counterexamples=3,
        )
        parallel = random_walks_parallel(
            scenario, depth=8, walks=60, seed=3, parallel=4,
            max_counterexamples=3,
        )
        # Walk i always draws substream(seed, "explore-walk", i) and the
        # shard boundaries depend only on the walk count: stats and
        # artifacts are pure functions of (scenario, bounds, seed).
        assert serial.walks == parallel.walks == 60
        assert serial.stats.to_dict() == parallel.stats.to_dict()
        assert [ce.key() for ce in serial.counterexamples] == [
            ce.key() for ce in parallel.counterexamples
        ]

    @pytest.mark.parametrize("walks", [1, 5, 17, 40])
    def test_ranges_count_what_one_serial_call_counts(self, walks):
        """Fewer walks than ranges, an uneven split and a walk count past
        the 16-range cap: the ranges re-partition the walks of one
        :func:`random_walks` call without changing what is counted."""
        scenario = clean_scenario()
        serial = random_walks(scenario, depth=8, walks=walks, seed=5)
        fanned = random_walks_parallel(
            scenario, depth=8, walks=walks, seed=5, parallel=2
        )
        assert not serial.found_violation and not fanned.found_violation
        assert fanned.stats.to_dict() == serial.stats.to_dict()
        assert fanned.stats.schedules == walks == fanned.walks
        assert fanned.seed == 5 and fanned.complete

    @pytest.mark.parametrize("policy", ["uniform", "quorum", "mixed"])
    def test_clean_walks_identical_for_every_worker_count(self, policy):
        scenario = clean_scenario()
        one = random_walks_parallel(
            scenario, depth=10, walks=24, seed=2, parallel=1, policy=policy
        )
        three = random_walks_parallel(
            scenario, depth=10, walks=24, seed=2, parallel=3, policy=policy
        )
        assert one.stats.to_dict() == three.stats.to_dict()
        assert not one.found_violation

    def test_counterexamples_are_capped_in_canonical_order(self):
        """Ranges cannot stop one another early, so each may bring its
        own counterexample; the merge keeps the first N by key."""
        result = random_walks_parallel(
            naive_scenario(), depth=8, walks=60, seed=3, parallel=2,
            max_counterexamples=2, shrink=False,
        )
        keys = [ce.key() for ce in result.counterexamples]
        assert len(keys) == 2
        assert keys == sorted(keys)
        assert result.stats.violations >= len(keys)
