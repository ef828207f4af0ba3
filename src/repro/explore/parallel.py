"""Multiprocess fan-out for explorations.

Work is split into self-contained, picklable shards and pushed through
:func:`repro.sim.batch.map_parallel`:

* **Exhaustive mode** shards by *k-action prefixes*: a shard planner
  walks the top of the serial search tree (same sleep-set algebra, same
  oracle judgements, same counters) and deepens level by level until the
  frontier holds at least :data:`SHARD_TARGET` subtrees — so even when
  the root branches less than the worker count, deep runs keep many
  workers busy.  Each frontier shard carries its prefix and the exact
  sleep set the serial enumeration would have handed that node (the
  :class:`~repro.explore.driver.Action` objects pickle whole), so the
  union of subtrees equals the serial search with nothing
  double-explored.  Prefix transitions are counted once, by the planner.
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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.explore.driver import Action, ExploreScenario, ScheduleDriver
from repro.explore.explorer import (
    DEFAULT_MAX_TRANSITIONS,
    EXHAUSTIVE,
    INCREMENTAL,
    ExploreResult,
    ExploreStats,
    SharedMemo,
    TransitionBudget,
    _Memo,
    explore,
    random_walks,
)
from repro.explore.oracle import Counterexample, Oracle, build_counterexample
from repro.sim.batch import map_parallel

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
    engine: str = INCREMENTAL
    memoize: Optional[bool] = None
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

#: Worker-side handle to the cross-process fingerprint memo (a
#: read-only :class:`~repro.explore.explorer.SharedMemo`), set by the
#: same initializer.
_SHARED_MEMO = None

#: Transitions a worker grabs from the shared counter per lock
#: acquisition; small enough that an exhausted budget truncates all
#: workers promptly, large enough that the lock stays off the hot path.
BUDGET_CHUNK = 512

#: Ceiling on the seeding probe that harvests hot fingerprint entries
#: for the cross-process memo; also capped at a quarter of the run's
#: remaining allowance so tight budgets stay with the shards.
PROBE_TRANSITIONS = 20_000


def _init_worker(counter, shared_memo=None) -> None:
    global _SHARED_COUNTER, _SHARED_MEMO
    _SHARED_COUNTER = counter
    _SHARED_MEMO = shared_memo


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
                engine=shard.engine,
                memoize=shard.memoize,
                prefix=shard.prefix,
                prefix_sleep=shard.prefix_sleep,
                budget=budget,
                shared_memo=_SHARED_MEMO,
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


@dataclass
class _ShardPlan:
    """Planner output: base counters for the explored top levels plus
    the frontier subtrees left for the workers."""

    stats: ExploreStats
    counterexamples: List[Counterexample]
    frontier: List[Tuple[Tuple[str, ...], Tuple[Action, ...]]]
    complete: bool = True


def _plan_shards(
    scenario: ExploreScenario,
    depth: int,
    reduce: bool,
    shrink: bool,
    max_counterexamples: int,
    budget: TransitionBudget,
    target: int = SHARD_TARGET,
    max_levels: int = MAX_SHARD_DEPTH,
) -> _ShardPlan:
    """Expand the serial search tree level by level into shard prefixes.

    The planner *is* the serial DFS restricted to the top ``k`` levels:
    identical sleep-set inheritance, identical counter updates,
    identical oracle judgements on every edge it executes — so
    ``planner stats + sum(shard stats)`` equals the serial run's stats.
    Paths that terminate (or violate) above the frontier are finished
    here and never become shards.
    """
    stats = ExploreStats()
    oracle = Oracle.for_scenario(scenario)
    counterexamples: List[Counterexample] = []
    plan = _ShardPlan(stats, counterexamples, [])

    def record_violation(schedule: Tuple[str, ...]) -> None:
        stats.violations += 1
        ce = build_counterexample(
            scenario,
            schedule,
            oracle,
            provenance={
                "mode": EXHAUSTIVE,
                "depth": depth,
                "reduce": reduce,
                "found_at": list(schedule),
            },
            shrink=shrink,
        )
        if all(existing.key() != ce.key() for existing in counterexamples):
            counterexamples.append(ce)

    frontier: List[Tuple[Tuple[str, ...], Tuple[Action, ...], int]] = [
        ((), (), 0)
    ]
    level = 0
    while frontier and len(frontier) < target and level < min(max_levels, depth):
        level += 1
        next_frontier: List[Tuple[Tuple[str, ...], Tuple[Action, ...], int]] = []
        for prefix, sleep_actions, responses in frontier:
            if len(counterexamples) >= max_counterexamples or budget.exhausted:
                # Stop expanding; untouched nodes stay shards (workers
                # apply their own quota, as shards always have).  Only
                # budget exhaustion marks the search incomplete.
                plan.complete = plan.complete and not budget.exhausted
                next_frontier.append((prefix, sleep_actions, responses))
                continue
            driver = ScheduleDriver(scenario)
            driver.run(prefix)
            stats.max_depth_seen = max(stats.max_depth_seen, len(prefix))
            enabled = driver.enabled()
            stats.max_enabled = max(stats.max_enabled, len(enabled))
            sleep = {action.label: action for action in sleep_actions}
            candidates = [a for a in enabled if a.label not in sleep]
            stats.sleep_pruned += len(enabled) - len(candidates)
            if not candidates:
                stats.schedules += 1
                continue
            done: List[Action] = []
            for action in candidates:
                if (
                    len(counterexamples) >= max_counterexamples
                    or budget.exhausted
                ):
                    plan.complete = plan.complete and not budget.exhausted
                    break
                child_sleep = [
                    sleeper
                    for sleeper in sleep.values()
                    if sleeper.independent_of(action)
                ]
                child_sleep.extend(
                    sleeper
                    for sleeper in done
                    if sleeper.independent_of(action)
                )
                child = ScheduleDriver(scenario)
                child.run(prefix)
                child.apply(action.label)
                if not budget.tick():
                    stats.schedules += 1
                    plan.complete = False
                    break
                stats.transitions += 1
                child_prefix = prefix + (action.label,)
                now_complete = child.responses()
                if now_complete > responses and not oracle.judge(child.history):
                    record_violation(child_prefix)
                    stats.schedules += 1
                elif len(child_prefix) >= depth:
                    # the frontier reached the depth bound: this path is
                    # a complete schedule, not a shard
                    stats.max_depth_seen = max(
                        stats.max_depth_seen, len(child_prefix)
                    )
                    stats.schedules += 1
                else:
                    next_frontier.append(
                        (
                            child_prefix,
                            tuple(child_sleep) if reduce else (),
                            now_complete,
                        )
                    )
                if reduce:
                    done.append(action)
        frontier = next_frontier
    plan.frontier = [(prefix, sleep) for prefix, sleep, _ in frontier]
    return plan


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
    mp_context: Optional[str] = None,
    engine: str = INCREMENTAL,
    memoize: Optional[bool] = None,
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
    import multiprocessing

    planner_budget = TransitionBudget(max_transitions)
    plan = _plan_shards(
        scenario,
        depth,
        reduce=reduce,
        shrink=shrink,
        max_counterexamples=max_counterexamples,
        budget=planner_budget,
    )
    base = ExploreResult(
        scenario=scenario,
        mode=EXHAUSTIVE,
        depth=depth,
        reduce=reduce,
        stats=plan.stats,
        counterexamples=plan.counterexamples,
        complete=plan.complete,
        engine=engine,
    )
    shards = [
        ExploreShard(
            scenario=scenario,
            mode=EXHAUSTIVE,
            depth=depth,
            reduce=reduce,
            shrink=shrink,
            max_counterexamples=max_counterexamples,
            engine=engine,
            memoize=memoize,
            prefix=prefix,
            prefix_sleep=sleep,
        )
        for prefix, sleep in plan.frontier
    ]
    remaining = max(0, max_transitions - planner_budget.spent)
    parallel = max(1, int(parallel))
    use_memo = engine == INCREMENTAL and (memoize is None or memoize)
    shared = None
    if use_memo and len(shards) > 1 and remaining > 0:
        # Seeding probe for the cross-process memo: a bounded run of
        # the same search (same reduction, same oracle) whose memo
        # entries — clean, fully-explored subtrees — are certified for
        # every shard.  The hottest ones ship to the workers behind a
        # bloom prefilter, so diamond states spanning shard boundaries
        # collapse once instead of once per shard.  The probe is a pure
        # function of (scenario, bounds): shard results stay identical
        # for every worker count, and its transitions are drawn from —
        # and reported against — the shared allowance.
        probe_budget = TransitionBudget(
            max(1, min(PROBE_TRANSITIONS, remaining // 4))
        )
        probe_memo = _Memo()
        explore(
            scenario,
            depth=depth,
            reduce=reduce,
            shrink=False,
            max_counterexamples=1,
            engine=INCREMENTAL,
            memoize=True,
            budget=probe_budget,
            memo=probe_memo,
        )
        shared = SharedMemo.build(probe_memo)
        base.stats.transitions += probe_budget.spent
        remaining = max(0, remaining - probe_budget.spent)
    if parallel == 1 or len(shards) <= 1:
        # In-process path: one plain budget object shared across the
        # shards; never touches the worker-global budget slot, so a
        # serial call cannot leak state into later parallel ones.
        budget = TransitionBudget(max(1, remaining))
        results = [
            explore(
                shard.scenario,
                depth=shard.depth,
                reduce=shard.reduce,
                max_counterexamples=shard.max_counterexamples,
                shrink=shard.shrink,
                engine=shard.engine,
                memoize=shard.memoize,
                prefix=shard.prefix,
                prefix_sleep=shard.prefix_sleep,
                budget=budget,
                shared_memo=shared,
            )
            for shard in shards
        ]
    else:
        ctx_name = mp_context or None
        from repro.sim.batch import default_mp_context

        ctx = multiprocessing.get_context(ctx_name or default_mp_context())
        counter = ctx.Value("q", remaining)
        results, _ = map_parallel(
            execute_shard,
            shards,
            parallel,
            ctx_name,
            initializer=_init_worker,
            initargs=(counter, shared),
        )
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
    mp_context: Optional[str] = None,
    policy: str = "mixed",
) -> ExploreResult:
    """Random-walk exploration, sharded into contiguous walk ranges.

    The shard boundaries are a fixed function of ``walks`` — never of
    ``parallel`` — so the merged result (stats included) is identical
    for every worker count.
    """
    parallel = max(1, int(parallel))
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
                mode="random",
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
    results, _ = map_parallel(execute_shard, shards, parallel, mp_context)
    merged = _merge(
        scenario, "random", depth, False, results, max_counterexamples
    )
    merged.walks = walks
    merged.seed = seed
    return merged
