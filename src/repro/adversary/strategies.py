"""Bounded reply-corruption strategies (the adversary's content choices).

A *strategy* is a pure transform over one server reply: given the
payload an honest automaton just produced, return what a Byzantine
server puts on the wire instead.  Strategies are the finite menu behind
both faces of the adversary layer:

* :class:`~repro.faults.byzantine.StrategyServer` applies one strategy
  to every reply of an inner honest automaton (free-running fault
  injection; ``corrupt(cluster, index, strategy)`` installs one);
* the exploration driver exposes one ``lie:<strategy>:<op>:<server>``
  choice point per (strategy, pending request, corruptible server) —
  the menu is what keeps the Byzantine branching factor finite.

Every strategy manipulates only information the server legitimately
holds (Section 6's adversary): a stale-but-validly-signed tag, an
inflated unauthenticated ``seen`` claim, a forged signature that honest
verifiers must reject, or silence.  None can mint a valid signature.

A strategy returns one of three things:

* a new payload — the corrupted reply;
* :data:`DROP` — the reply is withheld entirely (the omission face of
  the adversary; a Byzantine server may simply not answer);
* ``None`` — the strategy does not apply to this payload type; the
  honest reply goes out unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.crypto.signatures import SignatureAuthority
from repro.errors import ConfigurationError
from repro.registers import messages as msg
from repro.registers.base import Cluster
from repro.registers.timestamps import (
    INITIAL_MW_TAG,
    INITIAL_SIGNED_TAG,
    INITIAL_TAG,
    MWTimestamp,
    SignedValueTag,
    ValueTag,
)
from repro.sim.ids import ProcessId, writer as writer_id

#: Sentinel: the strategy withholds the reply instead of corrupting it.
DROP = object()


@dataclass(frozen=True)
class StrategyContext:
    """Everything a corruption may legitimately use.

    The context carries only material a real Byzantine server would
    hold: the (public) signature authority for *forging* attempts, the
    writer's identity, and the client population for ``seen``-set
    inflation.  ``forged_ts`` parameterises the forgery attack.
    """

    authority: Optional[SignatureAuthority] = None
    writer: Optional[ProcessId] = None
    clients: Tuple[ProcessId, ...] = ()
    forged_ts: int = 1_000_000

    @classmethod
    def of(cls, cluster: Cluster) -> "StrategyContext":
        """What a server of ``cluster`` holds: the deployment's
        authority (if signed), its one writer, its client population."""
        return cls(
            authority=cluster.authority,
            writer=writer_id(1),
            clients=tuple(cluster.config.client_ids),
        )


def _initial_tag_like(tag: Any) -> Optional[Any]:
    """The protocol-appropriate initial tag, or ``None`` if unknown."""
    if isinstance(tag, SignedValueTag):
        return INITIAL_SIGNED_TAG
    if isinstance(tag, ValueTag):
        return INITIAL_MW_TAG if isinstance(tag.ts, MWTimestamp) else INITIAL_TAG
    return None


_FAST_ACKS = (msg.FastReadAck, msg.FastWriteAck)


def _corrupt_stale(payload: Any, ctx: StrategyContext) -> Any:
    """Reply with the initial tag: maximally stale, validly "signed".

    The equivocation device of the Section 6.2 run: having adopted the
    write, the server answers a chosen victim as if it never happened.
    The initial tag passes authentication (it is the unsigned timestamp
    0 the protocol accepts), so the attack must be defeated by the
    staleness filter and the predicate's ``- (a-1)b`` slack.
    """
    if isinstance(payload, _FAST_ACKS):
        initial = _initial_tag_like(payload.tag)
        if initial is None:
            return None
        return type(payload)(
            op_id=payload.op_id,
            tag=initial,
            seen=payload.seen,
            r_counter=payload.r_counter,
        )
    if isinstance(payload, msg.QueryReply):
        initial = _initial_tag_like(payload.tag)
        if initial is None:
            return None
        return msg.QueryReply(op_id=payload.op_id, tag=initial)
    return None


def _corrupt_inflate(payload: Any, ctx: StrategyContext) -> Any:
    """Claim every client is in the ``seen`` set.

    The most interesting attack on Figure 5: ``seen`` sets are
    unauthenticated server claims, and inflating them pushes the
    fast-read predicate towards accepting ``maxTS`` without real
    evidence.  The algorithm survives because the predicate demands
    ``S - a·t - (a-1)·b`` *distinct* acks, of which at most ``b`` can
    be liars.
    """
    if isinstance(payload, _FAST_ACKS) and ctx.clients:
        return type(payload)(
            op_id=payload.op_id,
            tag=payload.tag,
            seen=frozenset(ctx.clients),
            r_counter=payload.r_counter,
        )
    return None


def _corrupt_forge(payload: Any, ctx: StrategyContext) -> Any:
    """Fabricate a huge future timestamp with a forged signature.

    Honest readers and servers must discard it — the strategy exists to
    let the explorer *check* that they do.
    """
    if (
        isinstance(payload, _FAST_ACKS)
        and isinstance(payload.tag, SignedValueTag)
        and ctx.authority is not None
        and ctx.writer is not None
    ):
        forged = SignedValueTag(
            ts=ctx.forged_ts,
            value="forged-value",
            prev_value="forged-prev",
            signed=ctx.authority.forge(
                ctx.writer, (ctx.forged_ts, "forged-value", "forged-prev")
            ),
        )
        return type(payload)(
            op_id=payload.op_id,
            tag=forged,
            seen=payload.seen,
            r_counter=payload.r_counter,
        )
    return None


def _corrupt_silent(payload: Any, ctx: StrategyContext) -> Any:
    """Withhold the reply entirely (the omission face)."""
    return DROP


@dataclass(frozen=True)
class ReplyStrategy:
    """One named corruption: picklable by name, applied as a function."""

    name: str
    summary: str
    corrupt: Callable[[Any, StrategyContext], Any]


STRATEGIES: Dict[str, ReplyStrategy] = {
    strategy.name: strategy
    for strategy in (
        ReplyStrategy(
            "stale",
            "answer with the initial tag (validly signed, maximally stale)",
            _corrupt_stale,
        ),
        ReplyStrategy(
            "inflate-seen",
            "claim every client is in the seen set",
            _corrupt_inflate,
        ),
        ReplyStrategy(
            "forge",
            "invent a future timestamp with a forged signature",
            _corrupt_forge,
        ),
        ReplyStrategy(
            "silent",
            "withhold the reply (omission)",
            _corrupt_silent,
        ),
    )
}

#: The menu a Byzantine scenario gets when none is named explicitly.
#: ``silent`` is excluded by default: withholding is already expressible
#: as "never deliver" in schedule-driven runs, so spending a content
#: choice point on it only widens the branching factor.
DEFAULT_MENU: Tuple[str, ...] = ("stale", "inflate-seen", "forge")


def get_strategy(name: str) -> ReplyStrategy:
    try:
        return STRATEGIES[name]
    except KeyError:
        known = ", ".join(sorted(STRATEGIES))
        raise ConfigurationError(
            f"unknown reply strategy {name!r}; known: {known}"
        ) from None


def resolve_menu(names) -> Tuple[ReplyStrategy, ...]:
    """Resolve strategy names to their registry entries, order-preserving."""
    return tuple(get_strategy(name) for name in names)
