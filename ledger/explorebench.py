"""The ``explore`` workload: two exhaustive searches and one hunt."""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List

from repro.explore import ExploreScenario, explorer, oracle
from repro.registers.base import ClusterConfig

from common import Workload
from tracing import calls, per, self_s

#: (label, scenario, depth, exact counts at that depth, smoke depth).
EXHAUSTIVE = (
    ("memo-heavy", ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1)),
     12, {"transitions": 5699, "schedules": 33504}, 8),
    ("sleep-set-heavy",
     ExploreScenario("swsr-fast", ClusterConfig(S=3, t=1, R=1),
                     writes_per_writer=2, reads_per_reader=2),
     9, {"transitions": 23028, "schedules": 50856}, 6),
)

#: One reader more than ``R < S/t - 2`` admits: a violation exists.
HUNT = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=2), reads_per_reader=2)
HUNT_DEPTH = 16
HUNT_WALKS = 2000

#: ``(walk seed, index of its first violating quorum walk)``.  Violating
#: walks are rare (one in ~10 000), so a hunt that stopped at its first
#: hit would do wildly different work per seed.  Each rep instead runs
#: the 2000 walks that *end* at a known first violation: the same amount
#: of search for every ``--seed``, exactly one counterexample.  Found
#: once with ``random_walks(HUNT, 16, 30000, seed, policy="quorum")``:
#: the first 16 walk seeds whose first hit leaves room for 2000 walks
#: before it.  A change to the walk policy invalidates the table and
#: fails the rep.
WALK_TABLE = (
    (0, 5630), (2, 20665), (3, 14630), (5, 24616),
    (6, 21731), (8, 3006), (9, 28761), (10, 3742),
    (11, 14652), (12, 8146), (13, 3508), (15, 14850),
    (16, 10075), (17, 8693), (18, 9227), (19, 3162),
)


class Explore(Workload):
    name = "explore"
    primary = "transitions_per_s"

    def setup(self) -> None:
        self.full = self.scale >= 1.0
        self.walk_seed, self.hit = WALK_TABLE[self.seed % len(WALK_TABLE)]
        self.walks = self.size(HUNT_WALKS, floor=10)

    def inputs_digest(self) -> str:
        text = f"{self.walk_seed}:{self.hit}:{self.walks}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def warmup(self) -> None:
        for _label, scenario, _depth, _counts, smoke_depth in EXHAUSTIVE:
            explorer.explore(scenario, smoke_depth)
        explorer.random_walks(
            HUNT, HUNT_DEPTH, 50, seed=self.walk_seed, policy="quorum",
            first_walk=self.hit - 49,
        )

    def rep(self) -> Dict[str, Any]:
        problems: List[str] = []
        stats = {"transitions": 0, "schedules": 0, "memo_hits": 0, "sleep_pruned": 0}
        begin = time.perf_counter_ns()
        for label, scenario, depth, expect, smoke_depth in EXHAUSTIVE:
            result = explorer.explore(scenario, depth if self.full else smoke_depth)
            got = result.stats.to_dict()
            for key in stats:
                stats[key] += got[key]
            if not result.complete or result.found_violation:
                problems.append(f"{label}: complete={result.complete} "
                                f"violation={result.found_violation}")
            elif self.full and any(got[k] != v for k, v in expect.items()):
                problems.append(f"{label}: counts {got} != {expect}")
        middle = time.perf_counter_ns()
        hunt = explorer.random_walks(
            HUNT, HUNT_DEPTH, self.walks, seed=self.walk_seed, policy="quorum",
            first_walk=self.hit - self.walks + 1,
        )
        found = hunt.counterexamples
        if len(found) != 1 or found[0].provenance["walk"] != self.hit:
            problems.append(f"hunt: {len(found)} counterexamples, expected one "
                            f"at walk {self.hit} of seed {self.walk_seed}")
        else:
            report = oracle.replay_counterexample(found[0])
            if not all(report.values()):
                problems.append(f"hunt: replay disagrees: {report}")
        end = time.perf_counter_ns()
        explore_wall = (middle - begin) / 1e9
        hunt_wall = (end - middle) / 1e9
        return {
            "wall_s": explore_wall + hunt_wall,
            "windows": {"op": (begin, end)},
            "e2e": {
                "explore_wall_s": explore_wall,
                "counterexample_s": hunt_wall,
                "transitions_per_s": stats["transitions"] / explore_wall,
            },
            "counts": dict(
                stats, hunt_transitions=hunt.stats.transitions,
                shrunk_length=len(found[0].schedule) if found else 0,
            ),
            "attempted": len(EXHAUSTIVE) + 1,
            "failed": min(len(problems), len(EXHAUSTIVE) + 1),
            "problems": problems,
            "info": {},
        }

    def trace_points(self) -> List[tuple]:
        from repro.explore.driver import ScheduleDriver

        return [
            (explorer, "explore", "explore.explorer:explore"),
            (explorer, "random_walks", "explore.explorer:random_walks"),
            (explorer, "quorum_walk", "explore.explorer:walk"),
            (explorer, "build_counterexample", "explore.oracle:build"),
            (oracle, "shrink_schedule", "explore.oracle:shrink"),
            (oracle, "replay_counterexample", "explore.oracle:replay"),
            (oracle.Oracle, "judge", "explore.oracle:judge"),
            (ScheduleDriver, "apply", "explore.driver:apply"),
            (ScheduleDriver, "undo", "explore.driver:undo"),
            (ScheduleDriver, "mark", "explore.driver:mark"),
            (ScheduleDriver, "fingerprint", "explore.driver:fingerprint"),
            (ScheduleDriver, "enabled", "explore.driver:enabled"),
        ]

    def layers(self, aggs, counts, rep) -> Dict[str, float]:
        agg, wall, stats = aggs["op"], rep["wall_s"], rep["counts"]

        def each(name: str) -> float:
            return per(self_s(agg, name), calls(agg, name), 1e6)

        search = self_s(agg, "explore.explorer:explore",
                        "explore.explorer:random_walks", "explore.explorer:walk")
        shrink = agg.get("explore.oracle:shrink", {}).get("total_s", 0.0)
        return {
            "explore.driver.apply_us_per_transition": each("explore.driver:apply"),
            "explore.driver.undo_us_per_transition": each("explore.driver:undo"),
            "explore.driver.fingerprint_us_per_call": each("explore.driver:fingerprint"),
            "explore.driver.enabled_us_per_call": each("explore.driver:enabled"),
            "explore.explorer.transitions": stats["transitions"],
            "explore.explorer.schedules": stats["schedules"],
            "explore.explorer.memo_hit_share":
                per(stats["memo_hits"], calls(agg, "explore.driver:fingerprint")),
            "explore.explorer.sleep_pruned": stats["sleep_pruned"],
            "explore.explorer.search_self_share": per(search, wall),
            "explore.oracle.judge_us_per_call": each("explore.oracle:judge"),
            "explore.oracle.judge_share": per(self_s(agg, "explore.oracle:judge"), wall),
            "explore.oracle.shrink_s": shrink,
        }
