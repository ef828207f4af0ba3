"""Bounded model checking over the schedule space.

Two modes share the driver's choice-point API:

* :func:`explore` — bounded-exhaustive DFS over every schedule up to a
  depth, with a **sleep-set** partial-order reduction: after a branch
  explores action ``a``, sibling branches carry ``a`` in their sleep set
  and skip it while only actions independent of their own first step
  remain — so of two schedules that differ only by swapping commuting
  deliveries (different processes touched), one is pruned.
* :func:`random_walks` — seeded uniform walks through the same action
  space for depths exhaustion cannot reach; every seed derives from one
  root via :func:`repro.sim.rng.substream`, so a sweep of walks is
  exactly reproducible and trivially shardable.

Exhaustive search runs on one driver with an undo journal
(:meth:`ScheduleDriver.mark` / :meth:`ScheduleDriver.undo`): backtracking
pops the last action's delta in O(|delta|), and a **state memo**
(:class:`Memo`) on top of the sleep sets collapses diamond-shaped
interleavings (state identity is *specified* by
:meth:`ScheduleDriver.fingerprint`; the memo keys on
:meth:`ScheduleDriver.state_key`, the ids of the state's hash-consed
parts): a state already explored clean to the same remaining
depth (with a sleep set no larger than the current one — Godefroid's
condition for combining sleep sets with state matching) is not
re-explored; its covered-schedule count is credited to the stats and
``memo_hits`` is incremented.  The memo is verdict-sound: an entry is
stored only for subtrees fully explored without a violation, and the
sleep-set reduction itself never loses a violation, so a cached clean
subtree certifies every schedule the current node would have explored.
``memoize=False`` is the plain sleep-set search that soundness is tested
against; the prefix-replaying search it must match bit for bit lives
with the tests (``tests/explore/_replay_reference.py``).

Both modes feed each history through the
:class:`~repro.explore.oracle.Oracle` after every completed operation
and, on violation, shrink the schedule to a 1-minimal counterexample
(see :mod:`repro.explore.oracle`).
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ScheduleError
from repro.explore.choices import RandomChooser, drive, quorum_walk
from repro.explore.driver import Action, ExploreScenario, ScheduleDriver, StateTable
from repro.explore.oracle import (
    DETECTABILITY_GAP,
    FRAUD_PROOF,
    Counterexample,
    Oracle,
    WalkOracle,
    build_counterexample,
)
from repro.spec.histories import Verdict

#: Default ceiling on executed transitions per exploration; a guard rail
#: against accidentally unbounded state spaces, not a tuning knob.
DEFAULT_MAX_TRANSITIONS = 2_000_000

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

#: Subtree roots a cut search leaves unexplored: ``(prefix, prefix_sleep)``.
Frontier = List[Tuple[Tuple[str, ...], Tuple[Action, ...]]]

#: Memoization is skipped when fewer than this many actions remain: a
#: leaf-adjacent subtree costs less to re-explore than its state costs
#: to fingerprint, and the bulk of a bounded tree's nodes live there.
MEMO_MIN_DEPTH = 3


@dataclass
class ExploreStats:
    """Coverage/pruning counters of one exploration."""

    transitions: int = 0  # actions executed across all schedules
    schedules: int = 0  # maximal paths covered (terminal or depth-capped)
    sleep_pruned: int = 0  # enabled actions skipped by the reduction
    memo_hits: int = 0  # subtrees skipped by the fingerprint memo
    shared_memo_hits: int = 0  # subtrees skipped via the cross-process memo
    max_depth_seen: int = 0
    max_enabled: int = 0
    violations: int = 0
    fraud_proofs: int = 0  # violations whose audit yielded a certificate
    detectability_gaps: int = 0  # audited violations with no certificate

    def merge(self, other: "ExploreStats") -> None:
        """High-water marks (``max_*``) merge by ``max``, counters by ``+``."""
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            high_water = f.name.startswith("max_")
            setattr(self, f.name, max(mine, theirs) if high_water else mine + theirs)

    def to_dict(self) -> Dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def record_accountability(self, ce: Counterexample) -> None:
        """Tally the audit verdict attached to one violation."""
        if ce.accountability is None:
            return
        if ce.accountability.get("verdict") == FRAUD_PROOF:
            self.fraud_proofs += 1
        elif ce.accountability.get("verdict") == DETECTABILITY_GAP:
            self.detectability_gaps += 1


@dataclass
class ExploreResult:
    """Outcome of one exploration (exhaustive or random)."""

    scenario: ExploreScenario
    mode: str
    depth: int
    reduce: bool
    stats: ExploreStats
    counterexamples: List[Counterexample] = field(default_factory=list)
    complete: bool = True  # False when the transition budget truncated DFS
    walks: int = 0
    seed: Optional[int] = None
    #: :meth:`Memo.summary` of a memoized exhaustive search (summed over
    #: shards); reporting only — never part of :class:`ExploreStats`.
    memo: Counter = field(default_factory=Counter)

    @property
    def found_violation(self) -> bool:
        return bool(self.counterexamples)

    def merge(self, other: "ExploreResult") -> "ExploreResult":
        """Order-independent merge used by the parallel fan-out."""
        merged = ExploreResult(
            scenario=self.scenario,
            mode=self.mode,
            depth=self.depth,
            reduce=self.reduce,
            stats=ExploreStats(**self.stats.to_dict()),
            counterexamples=list(self.counterexamples),
            complete=self.complete and other.complete,
            walks=self.walks + other.walks,
            seed=self.seed if self.seed is not None else other.seed,
            memo=self.memo + other.memo,
        )
        merged.stats.merge(other.stats)
        seen = {ce.key() for ce in merged.counterexamples}
        for ce in other.counterexamples:
            if ce.key() not in seen:
                seen.add(ce.key())
                merged.counterexamples.append(ce)
        # Canonical order regardless of which shard finished first.
        merged.counterexamples.sort(key=lambda ce: ce.key())
        return merged


class TransitionBudget:
    """A consumable transition allowance, optionally wall-clock bounded.

    ``tick()`` returns ``False`` on the tick that exhausts the budget —
    the caller then stops counting that transition (a truncated run
    reports one transition fewer than it executed).  The deadline (when
    given) is checked every 256 ticks to keep the hot path cheap.
    """

    __slots__ = ("limit", "spent", "exhausted", "_deadline")

    def __init__(self, limit: int, max_seconds: Optional[float] = None) -> None:
        self.limit = limit
        self.spent = 0
        self.exhausted = False
        self._deadline = (
            time.monotonic() + max_seconds if max_seconds is not None else None
        )

    def tick(self) -> bool:
        self.spent += 1
        if self.spent >= self.limit:
            self.exhausted = True
        elif (
            self._deadline is not None
            and (self.spent & 255) == 0
            and time.monotonic() >= self._deadline
        ):
            self.exhausted = True
        return not self.exhausted


class Memo:
    """Memo of clean subtrees, keyed by state key.

    The memo owns the search's :class:`~repro.explore.driver.StateTable`
    (:attr:`states`): the search's driver interns into it, every key
    here was built from it, and both live as long as the search.  Keys
    never leave the process — :meth:`hottest` expands them to
    fingerprints, and a ``base`` arrives as fingerprints and is
    re-interned into this memo's own table.

    An entry records the sleep-set labels the subtree was explored
    under, the remaining depth it was explored to, how many schedules
    it covered and how deep it reached.  A lookup hits only when some
    stored entry was explored *at least as deep* as the current node
    needs with a sleep set that is a *subset* of the current one — the
    stored exploration then covered a superset of the schedules the
    current node would enumerate (Godefroid's condition for combining
    sleep sets with state matching).

    ``base`` is a read-only table of the same shape (another search's
    :meth:`hottest` entries) consulted on a local miss: the parallel
    fan-out ships one to every worker so diamond states that span shard
    boundaries resolve once instead of once per shard.  Its entries
    certify clean subtrees of the same search, so they are sound under
    exactly the conditions above.
    """

    #: Entries kept per state; diamond states rarely recur with more
    #: than a few distinct (sleep set, depth) combinations.
    MAX_VARIANTS = 6

    __slots__ = ("states", "table", "hits", "base", "base_hits")

    def __init__(self, base: Optional[Dict[Tuple, List[Tuple]]] = None) -> None:
        self.states = StateTable()
        self.table: Dict[Tuple, List[Tuple]] = {}
        #: Per-state local hit counts — what :meth:`hottest` ranks by.
        self.hits: Dict[Tuple, int] = {}
        key_of = self.states.key_of
        self.base = {key_of(fp): entries for fp, entries in (base or {}).items()}
        self.base_hits = 0

    def lookup(
        self, key: Tuple, sleep_labels: frozenset, depth_left: int
    ) -> Tuple[Optional[Tuple], bool]:
        """``(entry, from_base)`` of a stored exploration covering this
        node, or ``(None, False)``."""
        # Prefer an exact-depth, exact-sleep entry: its schedule count is
        # exactly what this node would have enumerated.  Deeper or
        # smaller-sleep entries are equally *sound* (they certify a
        # superset) but their counts over-credit the ``schedules`` stat.
        best = None
        for entry in self.table.get(key, ()):
            if entry[1] >= depth_left and entry[0] <= sleep_labels:
                if entry[1] == depth_left and entry[0] == sleep_labels:
                    best = entry
                    break
                if best is None:
                    best = entry
        if best is not None:
            self.hits[key] = self.hits.get(key, 0) + 1
            return best, False
        for entry in self.base.get(key, ()):
            if entry[1] >= depth_left and entry[0] <= sleep_labels:
                self.base_hits += 1
                return entry, True
        return None, False

    def store(
        self,
        key: Tuple,
        sleep_labels: frozenset,
        depth_left: int,
        schedules: int,
        rel_depth: int,
    ) -> None:
        variants = self.table.setdefault(key, [])
        for i, entry in enumerate(variants):
            if sleep_labels <= entry[0] and depth_left >= entry[1]:
                variants[i] = (sleep_labels, depth_left, schedules, rel_depth)
                return
            if entry[0] <= sleep_labels and entry[1] >= depth_left:
                return  # an at-least-as-general entry already exists
        if len(variants) < self.MAX_VARIANTS:
            variants.append(
                (sleep_labels, depth_left, schedules, rel_depth)
            )

    def hottest(self, n: int) -> Dict[Tuple, List[Tuple]]:
        """The ``n`` hottest states with their entries, by *fingerprint*
        — a ``base`` for other searches' memos (tables of their own).

        Ranked by local hit count (states that already recurred once are
        the ones that span shard boundaries), then by covered schedules,
        then by DFS insertion order: a pure function of the search.
        """
        ranked = sorted(
            self.table.items(),
            key=lambda item: (
                -self.hits.get(item[0], 0),
                -max(entry[2] for entry in item[1]),
            ),
        )
        expand = self.states.expand
        return {expand(key): entries for key, entries in ranked[:n]}

    def summary(self) -> Counter:
        """What the memo holds and how often it answered."""
        return Counter(
            states=len(self.table),
            variants=sum(map(len, self.table.values())),
            parts=len(self.states.parts),
            local_hits=sum(self.hits.values()),
            base_hits=self.base_hits,
        )


def _check_bounds(depth: int, max_counterexamples: int) -> None:
    """A negative depth never reaches the ``depth_left == 0`` leaf test
    (an unbounded search) and a zero quota stops before the first node
    (a "clean" verdict on nothing): both are errors, not searches."""
    if depth < 0:
        raise ScheduleError(f"depth must be >= 0, got {depth}")
    if max_counterexamples < 1:
        raise ScheduleError(
            f"max_counterexamples must be >= 1, got {max_counterexamples}"
        )


def explore(
    scenario: ExploreScenario,
    depth: int,
    reduce: bool = True,
    max_transitions: int = DEFAULT_MAX_TRANSITIONS,
    max_counterexamples: int = 1,
    shrink: bool = True,
    memoize: bool = True,
    prefix: Sequence[str] = (),
    prefix_sleep: Sequence[Action] = (),
    budget: Optional[TransitionBudget] = None,
    max_seconds: Optional[float] = None,
    memo: Optional[Memo] = None,
    cut: Optional[Tuple[int, Frontier]] = None,
) -> ExploreResult:
    """Enumerate every schedule of ``scenario`` up to ``depth`` actions.

    With ``reduce`` the sleep-set reduction prunes commuting
    interleavings (sound for the oracle's verdicts: independent actions
    touch disjoint processes and shift only timestamps, never the
    real-time precedence a verdict depends on).

    ``memoize=False`` turns the fingerprint memo off: the plain
    sleep-set search, whose verdicts, counterexamples and stats are the
    reference the memo's soundness is tested against.

    ``prefix``/``prefix_sleep`` restrict the search to the subtree below
    one action sequence, carrying the sleep set the serial enumeration
    would have given that node, and ``cut=(level, frontier)`` is the
    other half: the search stops at every node ``level`` actions deep
    that still has depth left and appends its ``(prefix, prefix_sleep)``
    to ``frontier`` instead of descending.  The parallel fan-out shards
    deep work with the pair — one cut run counts everything above the
    frontier exactly once, one prefix run per frontier node counts the
    rest — so nothing is double-explored.  A cut run never memoizes (a
    cut subtree is not a clean one).

    ``budget`` shares one transition allowance across several calls
    (parallel shards); when omitted a fresh
    :class:`TransitionBudget` of ``max_transitions`` (and optionally
    ``max_seconds`` of wall clock) is used.

    ``memo`` lets the caller supply (and afterwards inspect) the
    fingerprint memo — the parallel fan-out's seeding probe harvests
    its :meth:`Memo.hottest` entries this way and hands them to every
    shard as ``Memo(base=...)``; hits on the base are counted separately
    (``shared_memo_hits``) and credited exactly like local ones.
    Ignored when memoization is off.

    Violations stop the search once ``max_counterexamples`` schedules
    have been found (each shrunk and packaged); the stats still count
    everything explored up to that point.  ``depth < 0`` or
    ``max_counterexamples < 1`` raise :class:`ScheduleError`.
    """
    _check_bounds(depth, max_counterexamples)
    stats = ExploreStats()
    oracle = Oracle.for_scenario(scenario)
    counterexamples: List[Counterexample] = []
    if budget is None:
        budget = TransitionBudget(max_transitions, max_seconds=max_seconds)
    if not memoize or cut is not None:
        memo = None
    elif memo is None:
        memo = Memo()

    def record_violation(schedule: Sequence[str]) -> None:
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
        stats.record_accountability(ce)
        if all(existing.key() != ce.key() for existing in counterexamples):
            counterexamples.append(ce)

    def dfs(
        driver: ScheduleDriver,
        path: List[str],
        sleep: Dict[str, Action],
        responses: int,
        depth_left: int,
    ) -> int:
        """Explore below the driver's state; returns the deepest path
        length covered in this subtree (for memo depth credit).

        The one driver is an argument, not a closure variable: ``dfs``
        refers to itself, so what it closes over is freed by the cycle
        collector rather than on return (+3 MB peak RSS, measured)."""
        deepest = len(path)
        if len(counterexamples) >= max_counterexamples or budget.exhausted:
            return deepest
        if cut is not None and len(path) == cut[0] and depth_left > 0:
            # The shard rooted here does this node's own accounting; at
            # depth_left == 0 the node is a leaf and is finished below.
            cut[1].append((tuple(path), tuple(sleep.values())))
            return deepest
        stats.max_depth_seen = max(stats.max_depth_seen, deepest)
        key = None
        sleep_labels: frozenset = frozenset()
        if memo is not None and depth_left >= MEMO_MIN_DEPTH:
            key = driver.state_key()
            sleep_labels = frozenset(sleep)
            hit, from_base = memo.lookup(key, sleep_labels, depth_left)
            if hit is not None:
                if from_base:
                    stats.shared_memo_hits += 1
                else:
                    stats.memo_hits += 1
                stats.schedules += hit[2]
                deepest = len(path) + min(hit[3], depth_left)
                stats.max_depth_seen = max(stats.max_depth_seen, deepest)
                return deepest
        enabled = driver.enabled()
        stats.max_enabled = max(stats.max_enabled, len(enabled))
        candidates = [a for a in enabled if a.label not in sleep]
        stats.sleep_pruned += len(enabled) - len(candidates)
        if depth_left == 0 or not candidates:
            stats.schedules += 1
            if key is not None:
                memo.store(key, sleep_labels, depth_left, 1, 0)
            return deepest
        schedules_before = stats.schedules
        violations_before = stats.violations
        truncated = False
        done: List[Action] = []
        for action in candidates:
            if len(counterexamples) >= max_counterexamples or budget.exhausted:
                truncated = True
                break
            child_sleep = {
                label: sleeper
                for label, sleeper in sleep.items()
                if sleeper.independent_of(action)
            }
            for sleeper in done:
                if sleeper.independent_of(action):
                    child_sleep[sleeper.label] = sleeper
            mark = driver.mark()
            driver.apply(action.label)
            if not budget.tick():
                stats.schedules += 1
                truncated = True
                driver.undo(mark)
                break
            stats.transitions += 1
            path.append(action.label)
            now_complete = driver.responses()
            if now_complete > responses and not oracle.judge(driver.history):
                record_violation(path)
                stats.schedules += 1
                deepest = max(deepest, len(path))
            else:
                deepest = max(
                    deepest,
                    dfs(
                        driver,
                        path,
                        child_sleep if reduce else {},
                        now_complete,
                        depth_left - 1,
                    ),
                )
            path.pop()
            driver.undo(mark)
            if reduce:
                done.append(action)
        if (
            key is not None
            and not truncated
            and not budget.exhausted
            and stats.violations == violations_before
        ):
            memo.store(
                key,
                sleep_labels,
                depth_left,
                stats.schedules - schedules_before,
                deepest - len(path),
            )
        return deepest

    root = ScheduleDriver(scenario, undo=True, states=memo and memo.states)
    root.run(prefix)
    root_path = list(prefix)
    initial_sleep: Dict[str, Action] = (
        {action.label: action for action in prefix_sleep} if reduce else {}
    )
    dfs(root, root_path, initial_sleep, root.responses(), depth - len(root_path))
    return ExploreResult(
        scenario=scenario,
        mode=EXHAUSTIVE,
        depth=depth,
        reduce=reduce,
        stats=stats,
        counterexamples=counterexamples,
        complete=not budget.exhausted,
        memo=memo.summary() if memo is not None else Counter(),
    )


UNIFORM = "uniform"
QUORUM = "quorum"
MIXED = "mixed"


def random_walk(
    scenario: ExploreScenario, depth: int, seed: int, walk: int, policy: str,
    oracle: Oracle,
) -> Tuple[ScheduleDriver, Verdict]:
    """Walk ``walk`` of :func:`random_walks` and its final verdict, both
    judged through one :class:`WalkOracle`."""
    chooser = RandomChooser(seed, walk)
    judge = WalkOracle(oracle)
    if policy == QUORUM or (policy == MIXED and walk % 2 == 1):
        driver = quorum_walk(scenario, chooser, depth, oracle=judge)
    else:
        driver = drive(scenario, chooser, depth, oracle=judge)
    return driver, judge.judge(driver.history)


def random_walks(
    scenario: ExploreScenario,
    depth: int,
    walks: int,
    seed: int = 0,
    max_counterexamples: int = 1,
    shrink: bool = True,
    first_walk: int = 0,
    policy: str = MIXED,
) -> ExploreResult:
    """Seeded random walks through the same choice-point space.

    Walk ``i`` draws from ``substream(seed, "explore-walk", i)``; results
    are a pure function of ``(scenario, depth, seed, walks, policy)`` no
    matter how the walk range is sharded across processes.  Policies:
    ``uniform`` picks any enabled action with equal probability (dense
    fine-grained interleavings), ``quorum`` walks operation by operation
    with random quorum choices and deliberate partial deliveries (the
    shape of the paper's lower-bound runs), and ``mixed`` — the default —
    alternates between them by walk parity.
    """
    _check_bounds(depth, max_counterexamples)
    stats = ExploreStats()
    oracle = Oracle.for_scenario(scenario)
    counterexamples: List[Counterexample] = []
    for walk in range(first_walk, first_walk + walks):
        driver, verdict = random_walk(scenario, depth, seed, walk, policy, oracle)
        stats.transitions += len(driver.schedule)
        stats.schedules += 1
        stats.max_depth_seen = max(stats.max_depth_seen, len(driver.schedule))
        if not verdict.ok:
            stats.violations += 1
            ce = build_counterexample(
                scenario,
                driver.schedule,
                oracle,
                provenance={
                    "mode": RANDOM,
                    "depth": depth,
                    "seed": seed,
                    "walk": walk,
                    "policy": policy,
                },
                shrink=shrink,
            )
            stats.record_accountability(ce)
            if all(existing.key() != ce.key() for existing in counterexamples):
                counterexamples.append(ce)
            if len(counterexamples) >= max_counterexamples:
                break
    return ExploreResult(
        scenario=scenario,
        mode=RANDOM,
        depth=depth,
        reduce=False,
        stats=stats,
        counterexamples=counterexamples,
        complete=True,
        walks=walks,
        seed=seed,
    )
