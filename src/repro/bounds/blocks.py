"""Server block partitions for the lower-bound constructions.

Section 5 partitions the servers into ``R + 2`` blocks ``B_1..B_{R+2}``
of size at most ``t`` (possible iff ``(R + 2)·t ≥ S``); Section 6.2 uses
``T_1..T_{R+2}`` of size at most ``t`` plus ``B_1..B_{R+1}`` of size at
most ``b`` (possible iff ``(R + 2)t + (R + 1)b ≥ S``).

The executable constructions additionally need the blocks that carry the
partial write — ``B_{R+1}`` in the crash proof, ``T_{R+1}`` and
``B_{R+1}`` in the Byzantine proof — to be as large as the caps allow,
so that the decisive read's evidence (``S - a·t - (a-1)·b`` messages
with a common ``seen`` set) actually materialises.  The partitioners
therefore fill the pivotal blocks first and spread the remainder evenly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import InfeasibleConstructionError
from repro.sim.ids import ProcessId, servers


@dataclass(frozen=True)
class Block:
    """A named set of servers, e.g. ``B3`` or ``T1``."""

    name: str
    members: Tuple[ProcessId, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def describe(self) -> str:
        inner = ",".join(str(p) for p in self.members) or "empty"
        return f"{self.name}={{{inner}}}"


def _spread(pool: List[ProcessId], bucket_count: int, cap: int) -> List[List[ProcessId]]:
    """Distribute ``pool`` over ``bucket_count`` buckets, each <= cap,
    as evenly as possible.  Caller guarantees capacity suffices."""
    buckets: List[List[ProcessId]] = [[] for _ in range(bucket_count)]
    if not pool:
        return buckets
    index = 0
    for pid in pool:
        attempts = 0
        while len(buckets[index % bucket_count]) >= cap:
            index += 1
            attempts += 1
            if attempts > bucket_count:
                raise InfeasibleConstructionError(
                    "internal error: block capacity arithmetic is wrong"
                )
        buckets[index % bucket_count].append(pid)
        index += 1
    return buckets


def partition_byzantine(
    S: int, t: int, b: int, R: int
) -> Tuple[List[Block], List[Block]]:
    """The ``T``/``B`` blocks of the Section 6.2 construction.

    Returns ``(t_blocks, b_blocks)`` with ``T1..T(R+2)`` of size <= t
    and ``B1..B(R+1)`` of size <= b.  ``T_{R+1}`` and ``B_{R+1}`` — the
    write's only recipients, the latter two-faced — are filled first.
    With ``b = 0`` every ``B`` block is empty and the ``T`` blocks are
    Section 5's partition (see :func:`partition_crash`).
    """
    if t < 1:
        raise InfeasibleConstructionError("the construction needs t >= 1")
    if R < 2:
        raise InfeasibleConstructionError("Propositions 5 and 10 need R >= 2")
    if (R + 2) * t + (R + 1) * b < S:
        raise InfeasibleConstructionError(
            f"S={S}, t={t}, b={b}, R={R} lie inside the feasible region "
            "(S > (R+2)t + (R+1)b); no partition exists"
        )
    pool = servers(S)
    t_pivot = pool[: t]                             # T_{R+1}
    pool = pool[t:]
    b_pivot = pool[: b]                             # B_{R+1}
    pool = pool[b:]
    t_tail = pool[: t]                              # T_{R+2}
    pool = pool[t:]
    # Remaining servers spread over T_1..T_R then B_1..B_R.
    t_capacity = R * t
    t_rest = pool[: t_capacity]
    b_rest = pool[t_capacity:]
    t_spread = _spread(t_rest, R, t)
    b_spread = _spread(b_rest, R, b) if R > 0 and b > 0 else [[] for _ in range(R)]
    if b == 0 and b_rest:
        raise InfeasibleConstructionError(
            "internal error: leftover servers with b = 0"
        )
    t_blocks = [Block(name=f"T{i + 1}", members=tuple(t_spread[i])) for i in range(R)]
    t_blocks.append(Block(name=f"T{R + 1}", members=tuple(t_pivot)))
    t_blocks.append(Block(name=f"T{R + 2}", members=tuple(t_tail)))
    b_blocks = [Block(name=f"B{i + 1}", members=tuple(b_spread[i])) for i in range(R)]
    b_blocks.append(Block(name=f"B{R + 1}", members=tuple(b_pivot)))
    return t_blocks, b_blocks


def partition_crash(S: int, t: int, R: int) -> List[Block]:
    """The ``R + 2`` blocks of the Section 5 construction.

    Crash is the ``b = 0`` case: these are the general partition's
    ``T`` blocks under Section 5's names ``B1..B(R+2)``, each of size
    at most ``t``, jointly covering all ``S`` servers, with ``B_{R+1}``
    (the block that alone receives the write) and ``B_{R+2}`` filled to
    the cap first.
    """
    t_blocks, _ = partition_byzantine(S, t, 0, R)
    return [
        Block(name=f"B{i}", members=block.members)
        for i, block in enumerate(t_blocks, start=1)
    ]


def block_map(blocks: Sequence[Block]) -> Dict[str, Block]:
    return {block.name: block for block in blocks}


def members_of(blocks: Sequence[Block]) -> List[ProcessId]:
    out: List[ProcessId] = []
    for block in blocks:
        out.extend(block.members)
    return out
