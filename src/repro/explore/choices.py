"""Choice sources: the adversaries that drive a :class:`ScheduleDriver`.

Everything that picks actions — the exhaustive enumerator, seeded random
walks, strict replays and hypothesis-backed property tests — goes
through one interface: given the enabled actions, return the index of
the one to take (or ``None`` to stop).  Exploration *modes* differ only
in where that integer comes from, so a schedule found by any mode can be
replayed, shrunk and serialized by the same machinery.
"""

from __future__ import annotations

import random
from typing import List, Optional, Protocol, Sequence

from repro.errors import ScheduleError
from repro.explore.driver import Action, ExploreScenario, ScheduleDriver
from repro.explore.oracle import Oracle
from repro.sim.rng import substream


class ChoiceSource(Protocol):
    """Anything that can pick the next action."""

    def choose(self, actions: Sequence[Action]) -> Optional[int]:
        """Index of the action to take, or ``None`` to stop the walk."""
        ...


class RandomChooser:
    """Uniform choice from a deterministic substream (random-walk mode)."""

    def __init__(self, seed: int, walk: int = 0) -> None:
        self._rng: random.Random = substream(seed, "explore-walk", walk)

    def choose(self, actions: Sequence[Action]) -> Optional[int]:
        return self._rng.randrange(len(actions))

    def randrange(self, bound: int) -> int:
        return self._rng.randrange(bound)

    def random(self) -> float:
        return self._rng.random()


class ReplayChooser:
    """Replays a fixed schedule strictly; raises when a label is missing."""

    def __init__(self, labels: Sequence[str]) -> None:
        self._labels = list(labels)
        self._cursor = 0

    def choose(self, actions: Sequence[Action]) -> Optional[int]:
        if self._cursor >= len(self._labels):
            return None
        wanted = self._labels[self._cursor]
        self._cursor += 1
        for index, action in enumerate(actions):
            if action.label == wanted:
                return index
        raise ScheduleError(f"replayed action {wanted!r} is not enabled")


def quorum_walk(
    scenario: ExploreScenario,
    chooser: RandomChooser,
    depth: int,
    oracle: Optional[Oracle] = None,
    partial_prob: float = 0.3,
    crash_prob: float = 0.15,
    lie_prob: float = 0.4,
) -> ScheduleDriver:
    """A structured random walk in the shape of the paper's constructions.

    Instead of drawing one envelope at a time, the walk proceeds
    operation by operation: invoke a random client, pick a random quorum
    (or, with ``partial_prob``, a proper subset — the operation then
    stays incomplete forever, the paper's crashed-mid-multicast device)
    and serve it in a random order, draining gossip where servers answer
    asynchronously.  Every step still goes through
    :meth:`ScheduleDriver.apply`, so schedules found here replay, shrink
    and serialize exactly like exhaustively found ones.  This policy
    reaches the sequential-reads-with-adversarial-quorums runs that
    uniform walks practically never hit (e.g. the Section 5 lower-bound
    schedule), while the uniform policy covers fine-grained
    interleavings this one skips.

    When the scenario carries a Byzantine budget, each serve may be
    swapped (with ``lie_prob``) for one of its enabled ``lie:…``
    variants — the equivocation-laced quorums of the Section 6.2 run.
    The extra randomness draws happen only on Byzantine scenarios, so
    crash-only walks keep their exact historical draw sequence (and
    every seeded corpus entry its schedule).
    """

    enabled: List[str] = []
    enabled_at = -1  # schedule length `enabled` was listed at

    def labels(prefix: str) -> List[str]:
        nonlocal enabled, enabled_at
        if enabled_at != len(driver.schedule):
            enabled_at = len(driver.schedule)
            enabled = [action.label for action in driver.enabled()]
        return [label for label in enabled if label.startswith(prefix)]

    def violated() -> bool:
        if oracle is None:
            return False
        return not oracle.judge(driver.history)

    def serve_or_lie(serve: str) -> None:
        if byzantine:
            suffix = serve.partition(":")[2]  # "<client>#<k>:<server>"
            lies = [
                label
                for label in labels("lie:")
                if label.split(":", 2)[2] == suffix
            ]
            if lies and chooser.random() < lie_prob:
                driver.apply(lies[chooser.randrange(len(lies))])
                return
        driver.apply(serve)

    driver = ScheduleDriver(scenario)
    quorum = scenario.config.quorum
    byzantine = scenario.byzantine_budget > 0
    while len(driver.schedule) < depth:
        crashes = labels("crash:")
        if crashes and chooser.random() < crash_prob:
            driver.apply(crashes[chooser.randrange(len(crashes))])
            continue
        invokes = labels("invoke:")
        if not invokes:
            break
        invoke = invokes[chooser.randrange(len(invokes))]
        client = invoke.partition(":")[2]
        driver.apply(invoke)
        issued = sum(
            1 for label in driver.schedule if label == f"invoke:{client}"
        )
        op_label = f"{client}#{issued}"
        partial = chooser.random() < partial_prob
        targets = labels(f"serve:{op_label}:")
        reach = (
            chooser.randrange(quorum) if partial else min(quorum, len(targets))
        )
        order = _sample(chooser, targets, min(reach, len(targets)))
        for serve in order:
            if len(driver.schedule) >= depth:
                break
            serve_or_lie(serve)
        if violated():
            break
        if partial:
            continue
        # Drain until the operation completes: later protocol rounds,
        # server gossip and withheld replies, one random step at a time.
        for _ in range(depth):
            if len(driver.schedule) >= depth:
                break
            current = driver.operation(op_label)
            if current.complete:
                break
            candidates = (
                labels(f"serve:{op_label}:")
                + labels(f"reply:{op_label}:")
                + labels("msg:")
            )
            if not candidates:
                break
            driver.apply(candidates[chooser.randrange(len(candidates))])
        # Belated deliveries: requests the operation skipped may still
        # reach their servers later (the constructions' "skipped blocks
        # receive the message after the read completed" device).
        for stale in labels(f"serve:{op_label}:"):
            if len(driver.schedule) >= depth:
                break
            if chooser.random() < 0.5:
                driver.apply(stale)
        if violated():
            break
    return driver


def _sample(chooser: RandomChooser, items: List[str], count: int) -> List[str]:
    """Deterministic sample-without-replacement via the chooser stream."""
    pool = list(items)
    picked: List[str] = []
    for _ in range(count):
        picked.append(pool.pop(chooser.randrange(len(pool))))
    return picked


def drive(
    scenario: ExploreScenario,
    chooser: ChoiceSource,
    depth: int,
    oracle: Optional[Oracle] = None,
    stop_on_violation: bool = True,
) -> ScheduleDriver:
    """Run one schedule: up to ``depth`` choices from ``chooser``.

    The oracle (when given) re-judges the history after every completed
    operation; with ``stop_on_violation`` the walk ends at the first
    violating prefix, which keeps counterexamples short before shrinking
    even starts.
    """
    driver = ScheduleDriver(scenario)
    responses = 0
    for _ in range(depth):
        actions = driver.enabled()
        if not actions:
            break
        index = chooser.choose(actions)
        if index is None:
            break
        driver.apply(actions[index].label)
        if oracle is not None:
            now_complete = driver.responses()
            if now_complete > responses:
                responses = now_complete
                if not oracle.judge(driver.history) and stop_on_violation:
                    break
    return driver
