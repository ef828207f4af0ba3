"""Exploration targets: every registered protocol plus the ablations.

The explorer hunts for correctness violations, so its universe of
systems-under-test is wider than the protocol registry: alongside every
:data:`repro.registers.registry.PROTOCOLS` entry it also enrolls the
deliberately-broken variants of :mod:`repro.registers.ablations`
(addressed as ``fast-crash@eager-reader`` etc.), which are the
counterexample generators the paper's Lemma 3/4 case analysis predicts.

A target never enforces its feasibility requirement at build time: the
whole point of threshold re-derivation is to run protocols on *both*
sides of their bound and watch the verdict flip.  The requirement
function is still exposed so callers can ask which side they are on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.registers.ablations import FLAWS, Flaw
from repro.registers.base import Cluster, ClusterConfig, ProtocolSpec
from repro.registers.registry import PROTOCOLS

#: The property the explorer's oracle checks for a target.
ATOMIC = "atomic"
REGULAR = "regular"

@dataclass(frozen=True)
class ExploreTarget:
    """One system the explorer can drive.

    ``expected_ok`` is the paper's prediction *inside* the feasible
    region (``requirement(config) is None``): faithful protocols must
    survive every schedule there; ablated/naive targets are expected to
    lose.  Outside the feasible region every fast protocol is fair game.
    """

    name: str
    summary: str
    build: Callable[[ClusterConfig], Cluster]
    requirement: Callable[[ClusterConfig], Optional[str]]
    property: str
    expected_ok: bool
    multi_writer: bool = False


def _registry_target(spec: ProtocolSpec) -> ExploreTarget:
    return ExploreTarget(
        name=spec.name,
        summary=spec.summary,
        build=lambda config: spec.build(config, enforce=False),
        requirement=spec.requirement,
        # Each protocol is judged against its declared contract: the
        # regular register against regularity, everything else against
        # atomicity/linearizability — which the strawman claims and fails.
        property=spec.contract,
        expected_ok=spec.atomic or spec.contract == REGULAR,
        multi_writer=spec.multi_writer,
    )


def _flaw_target(flaw: Flaw) -> ExploreTarget:
    """One row of the flaw table.  The Figure 5 rows are expected to
    lose *inside* the feasible region only once the adversary's content
    choices (a ``byzantine_budget``) are in play."""
    figure = flaw.base.paper_source.split(",")[0]
    return ExploreTarget(
        name=flaw.target,
        summary=f"{figure} with the {flaw.name} ablation (deliberately broken)",
        build=flaw.build,
        requirement=flaw.base.requirement,
        property=ATOMIC,
        expected_ok=flaw.expected_ok,
    )


TARGETS: Dict[str, ExploreTarget] = {
    **{spec.name: _registry_target(spec) for spec in PROTOCOLS.values()},
    **{flaw.target: _flaw_target(flaw) for flaw in FLAWS.values()},
}


def get_target(name: str) -> ExploreTarget:
    """Look up a target; underscores normalise to hyphens."""
    canonical = name.replace("_", "-")
    try:
        return TARGETS[canonical]
    except KeyError:
        known = ", ".join(sorted(TARGETS))
        raise KeyError(f"unknown explore target {name!r}; known: {known}") from None
