"""Bounded model checking over the schedule space.

Two modes share the driver's choice-point API:

* :func:`explore` — bounded-exhaustive DFS over every schedule up to a
  depth, with a **sleep-set** partial-order reduction: after a branch
  explores action ``a``, sibling branches carry ``a`` in their sleep set
  and skip it while only actions independent of their own first step
  remain — so of two schedules that differ only by swapping commuting
  deliveries (different processes touched), one is pruned.
* :func:`random_walks` — seeded walks through the same action space
  for depths exhaustion cannot reach, stopping at the first violating
  walk; every seed derives from one root via
  :func:`repro.sim.rng.substream`, so a sweep of walks is exactly
  reproducible.  ``repro explore --mode random`` runs it, and so does
  :func:`flaw_witness`, the quorum-walk hunt behind each row of the
  flaw table, its shrunk violation replayed on the faithful protocol
  as the control.

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

import functools
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
from repro.registers.ablations import Flaw
from repro.spec.histories import History, Verdict

#: Default ceiling on executed transitions per exploration; a guard rail
#: against accidentally unbounded state spaces, not a tuning knob.
DEFAULT_MAX_TRANSITIONS = 2_000_000

EXHAUSTIVE = "exhaustive"
RANDOM = "random"

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
    max_depth_seen: int = 0
    max_enabled: int = 0
    violations: int = 0
    fraud_proofs: int = 0  # violations whose audit yielded a certificate
    detectability_gaps: int = 0  # audited violations with no certificate

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
    #: :meth:`Memo.summary` of a memoized exhaustive search; reporting
    #: only — never part of :class:`ExploreStats`.
    memo: Counter = field(default_factory=Counter)

    @property
    def found_violation(self) -> bool:
        return bool(self.counterexamples)


class TransitionBudget:
    """A consumable transition allowance.

    ``tick()`` returns ``False`` on the tick that exhausts the budget —
    the caller then stops counting that transition (a truncated run
    reports one transition fewer than it executed).
    """

    __slots__ = ("limit", "spent", "exhausted")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.spent = 0
        self.exhausted = False

    def tick(self) -> bool:
        self.spent += 1
        if self.spent >= self.limit:
            self.exhausted = True
        return not self.exhausted


class Memo:
    """Memo of clean subtrees, keyed by state key.

    The memo owns the search's :class:`~repro.explore.driver.StateTable`
    (:attr:`states`): the search's driver interns into it, every key
    here was built from it, and both live as long as the search.

    An entry records the sleep-set labels the subtree was explored
    under, the remaining depth it was explored to, how many schedules
    it covered and how deep it reached.  A lookup hits only when some
    stored entry was explored *at least as deep* as the current node
    needs with a sleep set that is a *subset* of the current one — the
    stored exploration then covered a superset of the schedules the
    current node would enumerate (Godefroid's condition for combining
    sleep sets with state matching).
    """

    #: Entries kept per state; diamond states rarely recur with more
    #: than a few distinct (sleep set, depth) combinations.
    MAX_VARIANTS = 6

    __slots__ = ("states", "table")

    def __init__(self) -> None:
        self.states = StateTable()
        self.table: Dict[Tuple, List[Tuple]] = {}

    def lookup(
        self, key: Tuple, sleep_labels: frozenset, depth_left: int
    ) -> Optional[Tuple]:
        """A stored exploration covering this node, or ``None``."""
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
        return best

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

    def summary(self) -> Counter:
        """What the memo holds (its hits are ``ExploreStats.memo_hits``)."""
        return Counter(
            states=len(self.table),
            variants=sum(map(len, self.table.values())),
            parts=len(self.states.parts),
        )


def _check_bounds(depth: int, max_counterexamples: int, walks: int = 1) -> None:
    """A negative depth never reaches the ``depth_left == 0`` leaf test
    (an unbounded search), and a zero quota or walk count stops before
    the first node (a "clean" verdict on nothing): all are errors, not
    searches."""
    if depth < 0:
        raise ScheduleError(f"depth must be >= 0, got {depth}")
    if max_counterexamples < 1:
        raise ScheduleError(
            f"max_counterexamples must be >= 1, got {max_counterexamples}"
        )
    if walks < 1:
        raise ScheduleError(f"walks must be >= 1, got {walks}")


def explore(
    scenario: ExploreScenario,
    depth: int,
    reduce: bool = True,
    max_transitions: int = DEFAULT_MAX_TRANSITIONS,
    max_counterexamples: int = 1,
    shrink: bool = True,
    memoize: bool = True,
) -> ExploreResult:
    """Enumerate every schedule of ``scenario`` up to ``depth`` actions.

    With ``reduce`` the sleep-set reduction prunes commuting
    interleavings (sound for the oracle's verdicts: independent actions
    touch disjoint processes and shift only timestamps, never the
    real-time precedence a verdict depends on).

    ``memoize=False`` turns the fingerprint memo off: the plain
    sleep-set search, whose verdicts, counterexamples and stats are the
    reference the memo's soundness is tested against.

    The search stops executing actions after ``max_transitions`` and
    reports ``complete=False``.  Violations stop it once
    ``max_counterexamples`` schedules have been found (each shrunk and
    packaged); the stats still count everything explored up to that
    point.  ``depth < 0`` or ``max_counterexamples < 1`` raise
    :class:`ScheduleError`.
    """
    _check_bounds(depth, max_counterexamples)
    stats = ExploreStats()
    oracle = Oracle.for_scenario(scenario)
    counterexamples: List[Counterexample] = []
    budget = TransitionBudget(max_transitions)
    memo = Memo() if memoize else None

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
        stats.max_depth_seen = max(stats.max_depth_seen, deepest)
        key = None
        sleep_labels: frozenset = frozenset()
        if memo is not None and depth_left >= MEMO_MIN_DEPTH:
            key = driver.state_key()
            sleep_labels = frozenset(sleep)
            hit = memo.lookup(key, sleep_labels, depth_left)
            if hit is not None:
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
    dfs(root, [], {}, root.responses(), depth)
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
    are a pure function of ``(scenario, depth, seed, first_walk, walks,
    policy)``, and the search stops once ``max_counterexamples``
    distinct counterexamples are found.  Policies:
    ``uniform`` picks any enabled action with equal probability (dense
    fine-grained interleavings), ``quorum`` walks operation by operation
    with random quorum choices and deliberate partial deliveries (the
    shape of the paper's lower-bound runs), and ``mixed`` — the default —
    alternates between them by walk parity.  ``depth < 0``,
    ``max_counterexamples < 1`` or ``walks < 1`` raise
    :class:`ScheduleError`.
    """
    _check_bounds(depth, max_counterexamples, walks)
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


#: The flaw-table hunt behind :func:`flaw_witness`.  Quorum walks reach
#: every breakable row within this many walks of this seed (mixed walks
#: miss ``eager-reader`` and ``no-seen-reset``); ``no-seen-reset`` needs
#: walks deeper than 24 actions.
WITNESS_WALKS = 2000
WITNESS_SEED = 0
WITNESS_DEPTH = 32


class FlawWitness(NamedTuple):
    """A flaw's shrunk counterexample and its control run: the same
    schedule strictly replayed on the faithful protocol."""

    counterexample: Counterexample
    control: History
    control_verdict: Verdict


@functools.cache
def flaw_witness(flaw: Flaw) -> Optional[FlawWitness]:
    """The witness of one :data:`~repro.registers.ablations.FLAWS` row,
    or ``None`` when every walk of its scenario stays clean.

    The scenario is the row's cluster and reads per reader, with a
    Byzantine budget of ``config.b``.  The control applies every label
    of the shrunk schedule to the base protocol (a label it cannot
    apply raises :class:`ScheduleError`), so both protocols are judged
    on one schedule.  Results are cached per row and shared: callers
    must not mutate them.
    """
    scenario = ExploreScenario(
        flaw.target,
        flaw.config,
        reads_per_reader=flaw.reads_per_reader,
        byzantine_budget=flaw.config.b,
    )
    hunt = random_walks(
        scenario, WITNESS_DEPTH, WITNESS_WALKS, seed=WITNESS_SEED, policy=QUORUM
    )
    if not hunt.counterexamples:
        return None
    found = hunt.counterexamples[0]
    control = ScheduleDriver(replace(scenario, target=flaw.base.name))
    control.run(found.schedule)
    verdict = Oracle.for_scenario(control.scenario).judge(control.history)
    return FlawWitness(found, control.history, verdict)
