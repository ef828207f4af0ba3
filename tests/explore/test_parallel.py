"""Determinism of the explorer's multiprocess fan-out."""

import pytest

from repro.explore import (
    ExploreScenario,
    ExploreShard,
    Memo,
    execute_shard,
    explore,
    explore_parallel,
    random_walks_parallel,
)
from repro.explore.parallel import SHARD_TARGET, _plan_shards
from repro.registers.base import ClusterConfig


def naive_scenario():
    return ExploreScenario(
        "naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2)
    )


class TestExhaustiveSharding:
    def test_parallel_identical_to_serial(self):
        scenario = naive_scenario()
        serial = explore_parallel(
            scenario, depth=7, parallel=1, max_counterexamples=4
        )
        parallel = explore_parallel(
            scenario, depth=7, parallel=4, max_counterexamples=4
        )
        assert serial.stats.to_dict() == parallel.stats.to_dict()
        assert [ce.key() for ce in serial.counterexamples] == [
            ce.key() for ce in parallel.counterexamples
        ]
        assert [ce.to_json() for ce in serial.counterexamples] == [
            ce.to_json() for ce in parallel.counterexamples
        ]

    def test_clean_scenario_parallel_identical(self):
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        serial = explore_parallel(scenario, depth=6, parallel=1)
        parallel = explore_parallel(scenario, depth=6, parallel=3)
        assert serial.stats.to_dict() == parallel.stats.to_dict()
        assert serial.complete and parallel.complete
        assert not serial.found_violation

    def test_sharded_run_equals_unsharded_serial_search(self):
        """Planner stats + shard stats == one serial explore() call:
        the deep-prefix sharding re-partitions the serial search without
        changing what is counted."""
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        serial = explore(scenario, depth=6, memoize=False)
        sharded = explore_parallel(
            scenario, depth=6, parallel=2, memoize=False
        )
        assert serial.stats.to_dict() == sharded.stats.to_dict()
        assert serial.complete == sharded.complete

    def test_deep_sharding_beats_root_branching(self):
        """The root of this scenario enables only 2 actions; the planner
        must deepen the prefix frontier until >= SHARD_TARGET subtrees
        exist, so more workers than root branches stay busy."""
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        root_branching = 2  # invoke:w1, invoke:r1
        _base, frontier = _plan_shards(
            scenario,
            depth=6,
            reduce=True,
            shrink=True,
            max_counterexamples=1,
            max_transitions=10**6,
        )
        assert len(frontier) >= SHARD_TARGET > root_branching
        prefixes = [prefix for prefix, _ in frontier]
        assert all(len(prefix) >= 2 for prefix in prefixes)
        assert len(set(prefixes)) == len(prefixes)  # no double-exploring

    @pytest.mark.parametrize(
        "depth,counter,expected",
        [(3, "sleep_pruned", 19), (4, "detectability_gaps", 36)],
    )
    def test_sharded_stats_equal_serial_where_the_planner_had_drifted(
        self, depth, counter, expected
    ):
        """The planner is explore() with a cut, so the top levels count
        what the serial search counts — when it was a hand copy it
        skipped the leaf's enabled()/sleep accounting (1 pruned at depth
        3) and the audit verdicts (24 gaps at depth 4)."""
        scenario = ExploreScenario(
            "fast-byzantine@gullible-reader",
            ClusterConfig(S=3, t=1, R=1, b=1),
            byzantine_budget=1,
            strategies=("forge",),
        )
        serial = explore(
            scenario, depth, memoize=False, max_counterexamples=50
        )
        sharded = explore_parallel(
            scenario, depth, parallel=1, memoize=False, max_counterexamples=50
        )
        assert sharded.stats.to_dict() == serial.stats.to_dict()
        stats = sharded.stats
        assert stats.fraud_proofs + stats.detectability_gaps == stats.violations
        assert getattr(stats, counter) == expected


class TestSharedBudget:
    def test_budget_is_shared_not_per_shard(self):
        """The transition allowance is one global pool: a sharded run
        with a binding budget executes at most ~max_transitions
        transitions in total, not shards x max_transitions."""
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        limit = 400
        result = explore_parallel(
            scenario, depth=7, parallel=2, max_transitions=limit
        )
        assert not result.complete
        # planner + worker chunking can overshoot by at most one chunk
        # per worker; far below the 16-shard x limit blowup this guards
        assert result.stats.transitions <= 2 * limit

    def test_in_process_run_leaves_no_drained_allowance_behind(self):
        """parallel=1 runs the pool initializer in this process; a later
        direct execute_shard() must not inherit its spent budget."""
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        truncated = explore_parallel(
            scenario, depth=7, parallel=1, max_transitions=400
        )
        assert not truncated.complete
        shard = ExploreShard(scenario=scenario, mode="exhaustive", depth=5)
        assert execute_shard(shard).complete

    def test_unbinding_budget_keeps_results_identical(self):
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        tight = explore_parallel(
            scenario, depth=6, parallel=2, max_transitions=10**6
        )
        loose = explore_parallel(
            scenario, depth=6, parallel=4, max_transitions=2 * 10**6
        )
        assert tight.complete and loose.complete
        assert tight.stats.to_dict() == loose.stats.to_dict()


class TestCrossProcessMemo:
    def test_deep_sharded_run_hits_the_shared_memo(self):
        """Diamond states spanning shard boundaries resolve against the
        probe-seeded base table: the stat proves it."""
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        result = explore_parallel(scenario, depth=12, parallel=2)
        assert result.complete
        assert not result.found_violation
        assert result.stats.shared_memo_hits > 0

    def test_shared_memo_does_not_depend_on_worker_count(self):
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        two = explore_parallel(scenario, depth=10, parallel=2)
        four = explore_parallel(scenario, depth=10, parallel=4)
        assert two.stats.to_dict() == four.stats.to_dict()

    def test_memo_off_disables_the_probe_entirely(self):
        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        result = explore_parallel(scenario, depth=8, parallel=2, memoize=False)
        assert result.stats.shared_memo_hits == 0
        assert result.stats.memo_hits == 0

    def test_memo_base_serves_the_hottest_entries(self):
        memo = Memo()
        # Keys are issued by a memo's own table and do not carry over to
        # another memo; fingerprints (here two that differ only in their
        # history) do.
        states = [((), (), (), 0, (), (name,)) for name in ("hot", "cold")]
        hot, cold = map(memo.states.key_of, states)
        memo.store(hot, frozenset(), 5, 7, 3)
        memo.store(cold, frozenset(), 5, 1, 1)
        assert memo.lookup(hot, frozenset(), 5) == ((frozenset(), 5, 7, 3), False)
        shared = Memo(base=memo.hottest(1))
        hot, cold = map(shared.states.key_of, states)
        assert shared.lookup(hot, frozenset({"x"}), 4) == (
            (frozenset(), 5, 7, 3),
            True,
        )
        assert shared.lookup(cold, frozenset(), 5) == (None, False)
        # stored-depth/sleep-subset soundness conditions still gate hits
        assert shared.lookup(hot, frozenset(), 6) == (None, False)


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
