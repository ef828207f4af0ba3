"""Tests for the decentralised max-min register."""

import pytest

from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.registers.maxmin import SPEC, requirement
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, writer
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.fastness import client_rounds, server_replies_immediate
from repro.workloads import ClosedLoopWorkload, run_workload

from tests.registers.helpers import (
    assert_atomic_and_complete,
    run_sequence,
    spaced_ops,
)

CONFIG = ClusterConfig(S=5, t=2, R=3)


class TestRequirement:
    def test_majority(self):
        assert requirement(ClusterConfig(S=5, t=2, R=10)) is None
        assert requirement(ClusterConfig(S=4, t=2, R=1)) is not None

    def test_build_enforces(self):
        with pytest.raises(ConfigurationError):
            SPEC.build(ClusterConfig(S=4, t=2, R=1))


class TestBehaviour:
    def test_sequence_atomic(self):
        sim = run_sequence("maxmin", CONFIG, spaced_ops(writes=4, readers=3))
        assert_atomic_and_complete(sim)

    def test_read_is_one_client_round_but_not_immediate(self):
        sim = run_sequence("maxmin", CONFIG, spaced_ops(writes=1, readers=1))
        read_op = next(op for op in sim.history.complete_operations if op.is_read)
        assert client_rounds(sim.trace, read_op) == 1
        assert not server_replies_immediate(sim.trace, read_op)

    def test_gossip_counts(self):
        """Each read triggers S broadcasts of S-1 gossip messages."""
        sim = run_sequence("maxmin", CONFIG, [(0.0, reader(1), "read", None)])
        read_op = sim.history.operations[0]
        from repro.registers import messages as msg

        gossip_sends = [
            event
            for event in sim.trace.sends_by(server(1), op_id=read_op.op_id)
        ]
        assert len(gossip_sends) == (5 - 1) + 1  # gossip to peers + reply

    def test_server_replies_after_majority_gossip(self):
        cluster = SPEC.build(CONFIG)
        execution = ScriptedExecution()
        cluster.install(execution)
        read_op = execution.invoke(reader(1), "read")
        # deliver the read to s1 only; s1 gossips but cannot reply yet
        execution.deliver_requests(read_op, to=[server(1)])
        assert execution.replies_of(read_op) == []
        # deliver s1's gossip to s2 — s2 has 1 contribution, not enough
        from repro.registers import messages as msg

        gossip = execution.in_transit(src=server(1), dst=server(2))
        execution.deliver_each(gossip)
        assert execution.replies_of(read_op) == []
        # now deliver the read to s2 and s3, and their gossip everywhere;
        # quorum = 3 contributions, replies appear
        execution.deliver_requests(read_op, to=[server(2), server(3)])
        execution.run_to_quiescence()
        assert read_op.complete

    def test_reader_returns_min_of_acks(self):
        """With an incomplete write, gossip pools may differ; the reader
        conservatively returns the minimum (committed) tag."""
        config = ClusterConfig(S=5, t=2, R=1)
        cluster = SPEC.build(config)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "v")
        # incomplete write reaches s1 only
        execution.deliver_requests(write_op, to=[server(1)])
        read_op = execution.invoke(reader(1), "read")
        execution.run_to_quiescence()
        assert read_op.complete
        # the min over acks cannot be newer than what a majority gossiped
        assert read_op.result in ("v", "⊥")
        assert check_swmr_atomicity(execution.history).ok

    @pytest.mark.parametrize("seed", range(5))
    def test_contention_fuzz_atomic(self, seed):
        result = run_workload(
            "maxmin",
            CONFIG,
            workload=ClosedLoopWorkload.contention(ops=6),
            seed=seed,
        )
        assert result.check_atomic().ok, result.history.describe()

    def test_message_complexity_higher_than_fast(self):
        """max-min pays O(S^2) messages per read; fast pays O(S)."""
        fast_cfg = ClusterConfig(S=5, t=0, R=1)
        ops = [(0.0, reader(1), "read", None)]
        slow = run_sequence("maxmin", CONFIG, ops)
        fast = run_sequence("fast-crash", fast_cfg, ops)
        assert slow.network.sent_count > fast.network.sent_count
