"""The unified adversary model.

One declarative, picklable object — :class:`Adversary` — describes what
the fault environment of a run may do, across all three fault classes of
the paper's model:

* **crash** — up to ``crash_budget`` servers (≤ ``t``) may stop;
* **omission** — messages may be withheld forever (in schedule-driven
  runs this is the scheduler's power; the ``silent`` strategy adds it
  as an explicit content choice for wrapper-server use);
* **Byzantine** — up to ``byzantine_budget`` servers (≤ ``b``) may send
  corrupted replies drawn from a bounded menu of
  :class:`~repro.adversary.strategies.ReplyStrategy` transforms.

The model replaces ad-hoc fault injectors scattered across call sites:
the exploration driver derives its action vocabulary from it (crash
actions from the crash budget, ``lie:…`` content choice points from the
menu), the scripted constructions derive wrapper servers from the same
strategies, and tests inspect one object instead of five injector
functions.  Budgets are *allowances*, not scripts: which server crashes
or lies, when, and with which strategy remain schedule choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.adversary.strategies import (
    DEFAULT_MENU,
    ReplyStrategy,
    resolve_menu,
)
from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig


@dataclass(frozen=True)
class Adversary:
    """Fault allowances of one scenario (picklable: names and ints).

    ``strategies`` is the bounded equivocation menu: the only content
    corruptions a Byzantine server may apply.  A finite menu is what
    keeps the explorer's branching factor finite — the adversary's
    content choice is a *selection*, never a free payload.
    """

    crash_budget: int = 0
    byzantine_budget: int = 0
    strategies: Tuple[str, ...] = ()

    @classmethod
    def crash_only(cls, budget: int) -> "Adversary":
        return cls(crash_budget=budget)

    @classmethod
    def for_plan(cls, plan: Any, servers: Optional[int] = None) -> "Adversary":
        """The allowance a wire-level fault plan consumes on ``servers``
        (the cluster's ``S``).

        A :class:`~repro.net.chaos.FaultPlan` (anything exposing
        ``max_concurrent_failures(servers)`` and ``events``) stops whole
        servers and loses frames: crash faults.  A server it restarts
        comes back blank, having forgotten what it acknowledged —
        Section 6.2's memory loss — so each one also spends ``b``.
        Validating the returned adversary against a
        :class:`ClusterConfig` is how a chaotic run is prevented from
        silently exceeding the declared ``t`` and ``b``.
        """
        restarted = {e.server for e in plan.events if e.restart_at is not None}
        return cls(plan.max_concurrent_failures(servers), len(restarted))

    def admits_failures(self, concurrent: int) -> bool:
        """Whether ``concurrent`` simultaneous server failures fit."""
        return concurrent <= self.crash_budget

    @classmethod
    def byzantine(
        cls,
        budget: int,
        strategies: Tuple[str, ...] = DEFAULT_MENU,
        crash_budget: int = 0,
    ) -> "Adversary":
        return cls(
            crash_budget=crash_budget,
            byzantine_budget=budget,
            strategies=tuple(strategies),
        )

    @property
    def corrupts(self) -> bool:
        """True when the adversary may make content choices."""
        return self.byzantine_budget > 0 and bool(self.strategies)

    def menu(self) -> Tuple[ReplyStrategy, ...]:
        """The resolved strategy menu (empty without a Byzantine budget)."""
        if self.byzantine_budget <= 0:
            return ()
        return resolve_menu(self.strategies)

    def validate(self, config: ClusterConfig) -> None:
        """Check the allowances against the model parameters.

        Crash and Byzantine budgets must respect ``t`` and ``b``; a
        strategy menu without a Byzantine budget is rejected so that a
        serialized adversary always round-trips to the same behaviour.
        """
        if self.crash_budget < 0 or self.byzantine_budget < 0:
            raise ConfigurationError("adversary budgets must be non-negative")
        if self.crash_budget > config.t:
            raise ConfigurationError(
                f"crash budget {self.crash_budget} exceeds the model's "
                f"t={config.t}"
            )
        if self.byzantine_budget > config.b:
            raise ConfigurationError(
                f"Byzantine budget {self.byzantine_budget} exceeds the "
                f"model's b={config.b}"
            )
        if self.strategies and self.byzantine_budget == 0:
            raise ConfigurationError(
                "a strategy menu requires a Byzantine budget > 0"
            )
        resolve_menu(self.strategies)  # raises on unknown names
