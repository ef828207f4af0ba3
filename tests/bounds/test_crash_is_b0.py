"""Crash is the ``b = 0`` case of the lower bound — pinned.

The Section 5 partition, construction and chain are the Section 6.2
ones at ``b = 0``.  These tests hold that against an independent
Section 5 partitioner and against digests recorded from the two
separate implementations this codebase used to carry, so the single
body cannot drift from either.
"""

import hashlib

import pytest

from repro.bounds import (
    partition_byzantine,
    partition_crash,
    run_byzantine_lower_bound,
    run_crash_lower_bound,
    verify_byzantine_chain,
    verify_crash_chain,
)
from repro.errors import InfeasibleConstructionError
from repro.sim.ids import servers


def _section5_partition(S, t, R):
    """Section 5's blocks computed directly: ``B_{R+1}`` then
    ``B_{R+2}`` take ``t`` servers each, the rest go round-robin over
    ``B_1..B_R``."""
    if t < 1 or R < 2 or (R + 2) * t < S:
        return None
    pool = servers(S)
    numbered = [[] for _ in range(R)]
    for position, pid in enumerate(pool[2 * t :]):
        numbered[position % R].append(pid)
    return [tuple(block) for block in numbered] + [tuple(pool[:t]), tuple(pool[t : 2 * t])]


GRID = [
    (S, t, R) for S in range(2, 15) for t in range(0, S) for R in range(1, 7)
]


class TestPartition:
    def test_crash_partition_is_the_b0_partition_over_the_grid(self):
        partitionable = 0
        for S, t, R in GRID:
            expected = _section5_partition(S, t, R)
            if expected is None:
                with pytest.raises(InfeasibleConstructionError):
                    partition_crash(S, t, R)
                with pytest.raises(InfeasibleConstructionError):
                    partition_byzantine(S, t, 0, R)
                continue
            partitionable += 1
            crash = partition_crash(S, t, R)
            t_blocks, b_blocks = partition_byzantine(S, t, 0, R)
            assert [block.members for block in crash] == expected, (S, t, R)
            assert [block.members for block in t_blocks] == expected, (S, t, R)
            assert [block.name for block in crash] == [f"B{i}" for i in range(1, R + 3)]
            assert all(len(block) == 0 for block in b_blocks)
        assert partitionable == 401


def _digest(result) -> str:
    hasher = hashlib.sha256()
    for op in result.history.operations:
        hasher.update(
            f"{op.op_id}|{op.proc}|{op.kind}|{op.value!r}|{op.invoked_at!r}|"
            f"{op.result!r}|{op.responded_at!r}\n".encode("utf8")
        )
    hasher.update(repr(sorted(result.read_results.items())).encode("utf8"))
    hasher.update(repr(sorted(result.reached.items())).encode("utf8"))
    hasher.update("\n".join(result.narrative).encode("utf8"))
    hasher.update(" ".join(block.describe() for block in result.blocks).encode("utf8"))
    return hasher.hexdigest()[:16]


#: ``_digest`` of ``run_crash_lower_bound(S, t, R)`` as the stand-alone
#: Section 5 construction produced it (history, read results, reached
#: blocks, narrative, block layout).
CRASH_GOLDEN = {
    (4, 1, 2): "e3fb008a683d7cde",
    (12, 3, 2): "6fb10fb086bd1725",
    (10, 2, 3): "2a48bba51a21147d",
    (9, 2, 3): "ccaeadb0a6699731",
    (8, 2, 2): "1f3d5ea00cbe6923",
    (5, 1, 3): "1651a37b16766cb3",
    (6, 1, 4): "b26767bfb61b795e",
    (15, 3, 3): "b3a20af41962a096",
    (6, 2, 2): "2af9f4d7b60dec6c",
    (7, 2, 2): "7a244e3e2a8b9c6a",
}

#: Likewise for the stand-alone Section 6.2 construction, ``(S, t, b, R)``.
BYZANTINE_GOLDEN = {
    (7, 1, 1, 2): "befd947f6e7dabbc",
    (6, 1, 1, 2): "4a4356e49c80979a",
    (13, 2, 1, 3): "c229af73bfe1aabd",
    (10, 1, 1, 4): "aaf916225bc021d4",
    (9, 2, 1, 2): "ad2cf4e19d3649f3",
}


class TestConstruction:
    @pytest.mark.parametrize("params", sorted(CRASH_GOLDEN))
    def test_b0_construction_matches_the_section5_golden(self, params):
        assert _digest(run_crash_lower_bound(*params)) == CRASH_GOLDEN[params]

    @pytest.mark.parametrize("params", sorted(BYZANTINE_GOLDEN))
    def test_construction_matches_the_section62_golden(self, params):
        assert _digest(run_byzantine_lower_bound(*params)) == BYZANTINE_GOLDEN[params]

    @pytest.mark.parametrize("S,t,R", sorted(CRASH_GOLDEN))
    def test_signed_protocol_at_b0_runs_the_same_construction(self, S, t, R):
        """Same schedule, same blocks, same results and instants — only
        the protocol under test differs."""
        signed = run_byzantine_lower_bound(S, t, 0, R)
        assert signed.protocol == "fast-byzantine"
        assert _digest(signed) == CRASH_GOLDEN[(S, t, R)]


class TestChain:
    @pytest.mark.parametrize("S,t,R", [(4, 1, 2), (8, 2, 2), (10, 2, 3), (6, 1, 4)])
    def test_chain_at_b0_is_the_crash_chain(self, S, t, R):
        crash = verify_crash_chain(S, t, R)
        general = verify_byzantine_chain(S, t, 0, R)
        assert crash.all_hold and general.all_hold
        assert crash.describe() == general.describe()
        for ours, theirs in zip(crash.claims, general.claims):
            assert ours.left_view.acks == theirs.left_view.acks
            assert ours.right_view.acks == theirs.right_view.acks

    def test_header_names_the_section_and_its_parameters(self):
        crash = verify_crash_chain(4, 1, 2).describe().splitlines()[0]
        assert crash == "Section 5 indistinguishability chain at S=4, t=1, R=2:"
        general = verify_byzantine_chain(6, 1, 1, 2).describe().splitlines()[0]
        assert general == (
            "Section 6.2 indistinguishability chain at S=6, t=1, b=1, R=2:"
        )
