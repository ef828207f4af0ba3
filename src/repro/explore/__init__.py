"""Systematic schedule-space exploration (bounded model checking).

Public surface of the explorer subsystem:

* :class:`ExploreScenario`, :class:`ScheduleDriver`, :class:`Action` —
  the choice-point model over :class:`repro.sim.controller.ScriptedExecution`.
* :func:`explore` / :func:`random_walks` — bounded-exhaustive DFS with
  sleep-set reduction and a state memo, and seeded random walks for
  greater depths; each runs serially in one process.
* :func:`flaw_witness` — one flaw-table row's witness
  (:class:`FlawWitness`): a shrunk quorum-walk counterexample on the
  flawed protocol and its control replay on the faithful one.
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
    FlawWitness,
    Memo,
    TransitionBudget,
    explore,
    flaw_witness,
    random_walks,
)
from repro.explore.oracle import (
    Counterexample,
    Oracle,
    build_counterexample,
    replay_counterexample,
    shrink_schedule,
)
from repro.explore.targets import TARGETS, ExploreTarget, get_target

__all__ = [
    "Action",
    "ChoiceSource",
    "Counterexample",
    "EXHAUSTIVE",
    "ExploreResult",
    "ExploreScenario",
    "ExploreStats",
    "ExploreTarget",
    "FlawWitness",
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
    "explore",
    "flaw_witness",
    "get_target",
    "quorum_walk",
    "random_walks",
    "replay_counterexample",
    "shrink_schedule",
]
