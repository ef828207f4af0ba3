"""Prefix-replaying reference search (test-only).

The Verisoft-style search that ``explore(memoize=False)`` must match
bit for bit — stats, completeness, counterexample JSON.  No undo
journal, no memo, no budget: every node is reached by running its whole
prefix on a fresh replay-mode driver.  Uses only the public choice-point
API and :func:`build_counterexample`.
"""

from repro.explore import (
    EXHAUSTIVE,
    ExploreResult,
    ExploreStats,
    Oracle,
    ScheduleDriver,
    build_counterexample,
)


def replay_explore(scenario, depth, reduce=True, max_counterexamples=1):
    stats = ExploreStats()
    oracle = Oracle.for_scenario(scenario)
    found = []

    def at(path):
        driver = ScheduleDriver(scenario)
        driver.run(path)
        return driver

    def violation(path):
        stats.violations += 1
        stats.schedules += 1
        provenance = {
            "mode": EXHAUSTIVE, "depth": depth, "reduce": reduce, "found_at": path
        }
        ce = build_counterexample(scenario, path, oracle, provenance=provenance)
        stats.record_accountability(ce)
        if all(other.key() != ce.key() for other in found):
            found.append(ce)

    def dfs(path, sleep, responses):
        if len(found) >= max_counterexamples:
            return
        stats.max_depth_seen = max(stats.max_depth_seen, len(path))
        enabled = at(path).enabled()
        stats.max_enabled = max(stats.max_enabled, len(enabled))
        candidates = [a for a in enabled if a.label not in sleep]
        stats.sleep_pruned += len(enabled) - len(candidates)
        if len(path) == depth or not candidates:
            stats.schedules += 1
            return
        done = []
        for action in candidates:
            if len(found) >= max_counterexamples:
                break
            asleep = [*sleep.values(), *done] if reduce else []
            child_sleep = {s.label: s for s in asleep if s.independent_of(action)}
            child = at(path + [action.label])
            stats.transitions += 1
            now = child.responses()
            if now > responses and not oracle.judge(child.history):
                violation(child.schedule)
            else:
                dfs(child.schedule, child_sleep, now)
            done.append(action)

    dfs([], {}, 0)
    return ExploreResult(
        scenario, EXHAUSTIVE, depth, reduce, stats, counterexamples=found
    )
