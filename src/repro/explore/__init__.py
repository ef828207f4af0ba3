"""Systematic schedule-space exploration (bounded model checking).

Public surface of the explorer subsystem:

* :class:`ExploreScenario`, :class:`ScheduleDriver`, :class:`Action` —
  the choice-point model over :class:`repro.sim.controller.ScriptedExecution`.
* :func:`explore` / :func:`random_walks` — bounded-exhaustive DFS with
  sleep-set reduction, and seeded random walks for greater depths.
* :func:`explore_parallel` / :func:`random_walks_parallel` — the same,
  fanned across worker processes with deterministic merging.
* :class:`Oracle`, :class:`Counterexample`, :func:`shrink_schedule`,
  :func:`replay_counterexample` — verdicts via the online spec pipeline,
  schedule shrinking and byte-exact replayable artifacts.
* :data:`TARGETS` — every registered protocol plus the ablations.
"""

from repro.explore.choices import (
    ChoiceSource,
    RandomChooser,
    ReplayChooser,
    drive,
    quorum_walk,
)
from repro.explore.driver import Action, ExploreScenario, ScheduleDriver
from repro.explore.explorer import (
    EXHAUSTIVE,
    RANDOM,
    ExploreResult,
    ExploreStats,
    Memo,
    TransitionBudget,
    explore,
    random_walks,
)
from repro.explore.oracle import (
    Counterexample,
    Oracle,
    build_counterexample,
    replay_counterexample,
    shrink_schedule,
)
from repro.explore.parallel import (
    ExploreShard,
    execute_shard,
    explore_parallel,
    random_walks_parallel,
)
from repro.explore.targets import TARGETS, ExploreTarget, get_target

__all__ = [
    "Action",
    "ChoiceSource",
    "Counterexample",
    "EXHAUSTIVE",
    "ExploreResult",
    "ExploreScenario",
    "ExploreShard",
    "ExploreStats",
    "ExploreTarget",
    "Memo",
    "Oracle",
    "RANDOM",
    "RandomChooser",
    "ReplayChooser",
    "ScheduleDriver",
    "TARGETS",
    "TransitionBudget",
    "build_counterexample",
    "drive",
    "execute_shard",
    "explore",
    "explore_parallel",
    "get_target",
    "quorum_walk",
    "random_walks",
    "random_walks_parallel",
    "replay_counterexample",
    "shrink_schedule",
]
