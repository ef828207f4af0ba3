"""Multiprocess fan-out for explorations.

Work is split into self-contained, picklable shards and pushed through
:func:`repro.sim.batch.map_parallel`:

* **Exhaustive mode** shards by *k-action prefixes*: the planner runs
  the serial search itself (:func:`explore` with a ``cut``) over the top
  of the tree, one level deeper each time, until the frontier it leaves
  behind holds at least :data:`SHARD_TARGET` subtrees — so even when
  the root branches less than the worker count, deep runs keep many
  workers busy.  Each frontier shard carries its prefix and the exact
  sleep set the serial enumeration handed that node (the
  :class:`~repro.explore.driver.Action` objects pickle whole), so the
  union of subtrees equals the serial search with nothing
  double-explored.  Prefix transitions are counted once, by the cut run.
* **Random mode** shards into contiguous walk ranges.

The transition budget is *shared*: workers drain one global allowance
(a ``multiprocessing.Value`` handed to the pool initializer) in small
chunks instead of each shard receiving its own copy, so a cheap subtree
leaves its slack to the expensive ones and the fleet-wide total honours
``max_transitions``.  Shard planning depends only on the scenario and
bounds — never on the worker count — so the merged result is a pure
function of the inputs for every ``parallel`` value (when the budget
binds, truncation points depend on scheduling, exactly as they already
did for a truncated serial run).

Shard results come back in input order and merge left-to-right with
:meth:`ExploreResult.merge`, which sorts counterexamples by a stable
key.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import List, Tuple

from repro.explore.driver import Action, ExploreScenario
from repro.explore.explorer import (
    DEFAULT_MAX_TRANSITIONS,
    EXHAUSTIVE,
    RANDOM,
    ExploreResult,
    ExploreStats,
    Frontier,
    Memo,
    TransitionBudget,
    _check_bounds,
    explore,
    random_walks,
)
from repro.sim.batch import default_mp_context, map_parallel

#: Shard planning deepens the prefix frontier until at least this many
#: subtrees exist (or the tree runs out).  A constant — never the worker
#: count — so shard boundaries, and therefore the merged result, are
#: independent of ``parallel``; 16 comfortably feeds the worker counts
#: CI and laptops use, mirroring the random-mode shard count.
SHARD_TARGET = 16

#: Levels the planner will expand at most; bounds planning cost on
#: scenarios whose branching stays below :data:`SHARD_TARGET` for a
#: while.
MAX_SHARD_DEPTH = 3


@dataclass(frozen=True)
class ExploreShard:
    """One worker's slice of an exploration (fully picklable)."""

    scenario: ExploreScenario
    mode: str
    depth: int
    reduce: bool = True
    shrink: bool = True
    max_transitions: int = DEFAULT_MAX_TRANSITIONS
    max_counterexamples: int = 1
    memoize: bool = True
    # exhaustive shards: the frontier prefix and its inherited sleep set
    prefix: Tuple[str, ...] = ()
    prefix_sleep: Tuple[Action, ...] = ()
    # random shards: a contiguous walk range
    seed: int = 0
    first_walk: int = 0
    walks: int = 0
    policy: str = "mixed"


# ----------------------------------------------------------------------
# shared transition budget + cross-process memo

#: Worker-side handle to the shared allowance, set by the pool
#: initializer (inherited over fork, re-initialized over spawn).
_SHARED_COUNTER = None

#: Worker-side read-only memo base (the seeding probe's
#: :meth:`~repro.explore.explorer.Memo.hottest` entries), set by the
#: same initializer.  Keyed by *fingerprint*: state keys are ids in the
#: probe's table, so every shard's ``Memo(base=...)`` re-interns the
#: entries — also when ``parallel=1`` runs probe and shards in-process.
_SHARED_BASE = None

#: Transitions a worker grabs from the shared counter per lock
#: acquisition; small enough that an exhausted budget truncates all
#: workers promptly, large enough that the lock stays off the hot path.
BUDGET_CHUNK = 512

#: Ceiling on the seeding probe that harvests hot fingerprint entries
#: for the cross-process memo; also capped at a quarter of the run's
#: remaining allowance so tight budgets stay with the shards.
PROBE_TRANSITIONS = 20_000

#: Hot probe entries shipped at most; keeps the initializer payload small.
SHARED_ENTRIES = 4096


def _init_worker(counter, base=None) -> None:
    global _SHARED_COUNTER, _SHARED_BASE
    _SHARED_COUNTER = counter
    _SHARED_BASE = base


class SharedTransitionBudget(TransitionBudget):
    """Drains a fleet-wide allowance in chunks.

    Semantics match :class:`TransitionBudget`: ``tick()`` returns
    ``False`` on the tick that finds the (global) allowance empty, and
    the shard then truncates.  Chunk remainders held by a worker when it
    finishes a shard are returned to the pool, so under-consumption by
    cheap shards stays available to expensive ones.
    """

    __slots__ = ("_counter", "_local")

    def __init__(self, counter) -> None:
        super().__init__(limit=2**63 - 1)
        self._counter = counter
        self._local = 0

    def tick(self) -> bool:
        if self.exhausted:
            return False
        if self._local == 0:
            with self._counter.get_lock():
                grab = min(BUDGET_CHUNK, self._counter.value)
                self._counter.value -= grab
            if grab == 0:
                self.exhausted = True
                return False
            self._local = grab
        self._local -= 1
        self.spent += 1
        return True

    def release_remainder(self) -> None:
        if self._local:
            with self._counter.get_lock():
                self._counter.value += self._local
            self._local = 0


def execute_shard(shard: ExploreShard) -> ExploreResult:
    """Worker entry point: run one shard to completion."""
    if shard.mode == EXHAUSTIVE:
        budget = None
        if _SHARED_COUNTER is not None:
            budget = SharedTransitionBudget(_SHARED_COUNTER)
        try:
            return explore(
                shard.scenario,
                depth=shard.depth,
                reduce=shard.reduce,
                max_transitions=shard.max_transitions,
                max_counterexamples=shard.max_counterexamples,
                shrink=shard.shrink,
                memoize=shard.memoize,
                prefix=shard.prefix,
                prefix_sleep=shard.prefix_sleep,
                budget=budget,
                memo=Memo(base=_SHARED_BASE),
            )
        finally:
            if budget is not None:
                budget.release_remainder()
    return random_walks(
        shard.scenario,
        depth=shard.depth,
        walks=shard.walks,
        seed=shard.seed,
        max_counterexamples=shard.max_counterexamples,
        shrink=shard.shrink,
        first_walk=shard.first_walk,
        policy=shard.policy,
    )


# ----------------------------------------------------------------------
# shard planning (exhaustive mode)


def _plan_shards(
    scenario: ExploreScenario,
    depth: int,
    reduce: bool,
    shrink: bool,
    max_counterexamples: int,
    max_transitions: int,
) -> Tuple[ExploreResult, Frontier]:
    """Cut the serial search into a counted top and a frontier of shards.

    Re-runs :func:`explore` cut at level 1, 2, … (the top levels are a
    few hundred transitions) until the frontier holds
    :data:`SHARD_TARGET` subtrees, the tree runs out or
    :data:`MAX_SHARD_DEPTH` is reached, and returns that run's own
    result as the base: ``base stats + sum(shard stats)`` equals the
    serial run's stats because the base *is* the serial run above the
    cut.  The run is unmemoized, so the base does not depend on memo
    state and the top levels are never fingerprinted.
    """
    for level in range(1, MAX_SHARD_DEPTH + 1):
        frontier: Frontier = []
        base = explore(
            scenario,
            depth,
            reduce=reduce,
            max_transitions=max_transitions,
            max_counterexamples=max_counterexamples,
            shrink=shrink,
            memoize=False,
            cut=(level, frontier),
        )
        if not frontier or len(frontier) >= SHARD_TARGET:
            break
    return base, frontier


def _merge(scenario: ExploreScenario, mode: str, depth: int,
           reduce: bool, results: List[ExploreResult],
           max_counterexamples: int) -> ExploreResult:
    if not results:
        return ExploreResult(
            scenario=scenario, mode=mode, depth=depth, reduce=reduce,
            stats=ExploreStats(),
        )
    merged = results[0]
    for result in results[1:]:
        merged = merged.merge(result)
    # Shards cannot coordinate early stopping, so each may contribute a
    # counterexample; keep the first N in canonical (sorted-key) order.
    merged.counterexamples = merged.counterexamples[:max_counterexamples]
    return merged


def explore_parallel(
    scenario: ExploreScenario,
    depth: int,
    reduce: bool = True,
    parallel: int = 1,
    max_transitions: int = DEFAULT_MAX_TRANSITIONS,
    max_counterexamples: int = 1,
    shrink: bool = True,
    memoize: bool = True,
) -> ExploreResult:
    """Exhaustive exploration, sharded by k-action prefixes.

    Shard boundaries depend only on the scenario and bounds, so the
    merged result is identical for every ``parallel`` value.  The union
    of subtrees equals the serial search space (each shard inherits
    exactly the sleep set the serial DFS would have used at its
    prefix), but bookkeeping can differ from a single :func:`explore`
    call when early stopping bites: shards stop at their own
    counterexample quota rather than a global one, and when the shared
    transition budget binds, which shard truncates depends on worker
    scheduling — so stats (and which of several equivalent
    counterexamples is kept) may then differ from the unsharded run.
    """
    base, frontier = _plan_shards(
        scenario, depth, reduce, shrink, max_counterexamples, max_transitions
    )
    shards = [
        ExploreShard(
            scenario=scenario,
            mode=EXHAUSTIVE,
            depth=depth,
            reduce=reduce,
            shrink=shrink,
            max_counterexamples=max_counterexamples,
            memoize=memoize,
            prefix=prefix,
            prefix_sleep=sleep,
        )
        for prefix, sleep in frontier
    ]
    remaining = max(0, max_transitions - base.stats.transitions)
    shared = None
    if memoize and len(shards) > 1 and remaining > 0:
        # Seeding probe for the cross-process memo: a bounded run of
        # the same search (same reduction, same oracle) whose memo
        # entries — clean, fully-explored subtrees — are certified for
        # every shard.  The hottest ones ship to the workers, expanded
        # to fingerprints, as the read-only base of each shard's memo,
        # so diamond states spanning shard boundaries collapse once
        # instead of once per shard.  The probe is a pure function of
        # (scenario, bounds): shard results stay identical for every
        # worker count, and its transitions are drawn from — and
        # reported against — the shared allowance.
        probe_budget = TransitionBudget(
            max(1, min(PROBE_TRANSITIONS, remaining // 4))
        )
        probe_memo = Memo()
        explore(
            scenario,
            depth=depth,
            reduce=reduce,
            shrink=False,
            budget=probe_budget,
            memo=probe_memo,
        )
        shared = probe_memo.hottest(SHARED_ENTRIES)
        base.stats.transitions += probe_budget.spent
        remaining = max(0, remaining - probe_budget.spent)
    ctx = multiprocessing.get_context(default_mp_context())
    try:
        results, _ = map_parallel(
            execute_shard,
            shards,
            parallel,
            initializer=_init_worker,
            initargs=(ctx.Value("q", remaining), shared),
        )
    finally:
        # An in-process map ran the initializer here: leave no drained
        # allowance behind for a later direct execute_shard() call.
        _init_worker(None)
    return _merge(
        scenario, EXHAUSTIVE, depth, reduce, [base] + results,
        max_counterexamples,
    )


def random_walks_parallel(
    scenario: ExploreScenario,
    depth: int,
    walks: int,
    seed: int = 0,
    parallel: int = 1,
    max_counterexamples: int = 1,
    shrink: bool = True,
    policy: str = "mixed",
) -> ExploreResult:
    """Random-walk exploration, sharded into contiguous walk ranges.

    The shard boundaries are a fixed function of ``walks`` — never of
    ``parallel`` — so the merged result (stats included) is identical
    for every worker count.
    """
    _check_bounds(depth, max_counterexamples)
    shard_count = min(16, walks) if walks else 1
    base, extra = divmod(walks, shard_count)
    shards = []
    start = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        if size == 0:
            continue
        shards.append(
            ExploreShard(
                scenario=scenario,
                mode=RANDOM,
                depth=depth,
                shrink=shrink,
                max_counterexamples=max_counterexamples,
                seed=seed,
                first_walk=start,
                walks=size,
                policy=policy,
            )
        )
        start += size
    results, _ = map_parallel(execute_shard, shards, parallel)
    merged = _merge(
        scenario, RANDOM, depth, False, results, max_counterexamples
    )
    merged.walks = walks
    merged.seed = seed
    return merged
