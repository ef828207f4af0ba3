"""Tests for the scripted adversarial controller."""

import pytest

from repro.errors import ScheduleError, SimulationError
from repro.registers.base import ClusterConfig
from repro.registers.fast_crash import SPEC
from repro.registers import messages as msg
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, servers, writer


def make_execution(S=4, t=1, R=2):
    config = ClusterConfig(S=S, t=t, R=R)
    cluster = SPEC.build(config, enforce=False)
    execution = ScriptedExecution()
    cluster.install(execution)
    return execution, config


class TestInvocationHolding:
    def test_invoke_holds_messages(self):
        execution, config = make_execution()
        op = execution.invoke(writer(), "write", 10)
        held = execution.in_transit(op_id=op.op_id)
        assert len(held) == config.S
        assert not op.complete

    def test_requests_of_orders_by_target(self):
        execution, _ = make_execution()
        op = execution.invoke(writer(), "write", 10)
        ordered = execution.requests_of(op, to=[server(3), server(1)])
        assert [e.dst for e in ordered] == [server(3), server(1)]


class TestDelivery:
    def test_deliver_requests_generates_replies(self):
        execution, _ = make_execution()
        op = execution.invoke(writer(), "write", 10)
        execution.deliver_requests(op, to=[server(1), server(2)])
        replies = execution.replies_of(op)
        assert len(replies) == 2
        assert all(isinstance(e.payload, msg.FastWriteAck) for e in replies)

    def test_write_completes_at_quorum(self):
        execution, config = make_execution(S=4, t=1)
        op = execution.invoke(writer(), "write", 10)
        quorum_servers = servers(4)[: config.quorum]
        execution.deliver_requests(op, to=quorum_servers)
        execution.deliver_replies(op, from_=quorum_servers)
        assert op.complete
        assert op.result == "ok"

    def test_write_incomplete_below_quorum(self):
        execution, config = make_execution(S=4, t=1)
        op = execution.invoke(writer(), "write", 10)
        some = servers(4)[: config.quorum - 1]
        execution.deliver_requests(op, to=some)
        execution.deliver_replies(op, from_=some)
        assert not op.complete

    def test_complete_operation_round_trips(self):
        execution, _ = make_execution()
        op = execution.invoke(writer(), "write", 10)
        execution.complete_operation(op, via=servers(4)[:3])
        assert op.complete

    def test_complete_operation_raises_when_stuck(self):
        execution, _ = make_execution(S=4, t=1)
        op = execution.invoke(writer(), "write", 10)
        with pytest.raises(ScheduleError):
            execution.complete_operation(op, via=servers(4)[:2])  # below quorum

    def test_run_to_quiescence_drains(self):
        execution, _ = make_execution()
        op = execution.invoke(writer(), "write", 10)
        execution.run_to_quiescence()
        assert op.complete
        assert execution.in_transit() == []


class TestTimeAndPrecedence:
    def test_each_step_advances_time(self):
        execution, _ = make_execution()
        op1 = execution.invoke(writer(), "write", 1)
        execution.complete_operation(op1, via=servers(4))
        op2 = execution.invoke(reader(1), "read")
        assert op1.responded_at < op2.invoked_at
        assert op1.precedes(op2)

    def test_held_operations_are_concurrent(self):
        execution, _ = make_execution()
        op1 = execution.invoke(writer(), "write", 1)
        op2 = execution.invoke(reader(1), "read")
        assert op1.concurrent_with(op2)


class TestCrashAndDrop:
    def test_crashed_server_drops_deliveries(self):
        execution, _ = make_execution()
        op = execution.invoke(writer(), "write", 1)
        execution.crash(server(1))
        execution.deliver_requests(op, to=[server(1)])
        assert execution.replies_of(op) == []

    def test_crashed_client_sends_nothing(self):
        execution, _ = make_execution()
        op = execution.invoke(reader(1), "read")
        execution.crash(reader(1))
        # server replies still flow but the reader is gone; deliver all
        execution.run_to_quiescence()
        assert not op.complete

    def test_drop_removes_message(self):
        execution, _ = make_execution()
        op = execution.invoke(writer(), "write", 1)
        victim = execution.requests_of(op)[0]
        execution.drop(victim)
        assert victim not in execution.in_transit(op_id=op.op_id)

    def test_invoke_on_crashed_client_rejected(self):
        execution, _ = make_execution()
        execution.crash(reader(1))
        with pytest.raises(SimulationError):
            execution.invoke(reader(1), "read")


class TestFastReadSemantics:
    def test_read_sees_only_delivered_servers(self):
        """A read that 'skips' the only server holding a value misses it."""
        execution, config = make_execution(S=4, t=1, R=2)
        write_op = execution.invoke(writer(), "write", 99)
        # write reaches only s1 (incomplete write)
        execution.deliver_requests(write_op, to=[server(1)])
        read_op = execution.invoke(reader(1), "read")
        rest = [server(2), server(3), server(4)]
        execution.deliver_requests(read_op, to=rest)
        execution.deliver_replies(read_op, from_=rest)
        assert read_op.complete
        from repro.spec.histories import BOTTOM

        assert read_op.result == BOTTOM

    def test_read_returns_incomplete_write_value_when_seen(self):
        execution, config = make_execution(S=4, t=1, R=2)
        write_op = execution.invoke(writer(), "write", 99)
        execution.deliver_requests(write_op, to=[server(1), server(2), server(3)])
        read_op = execution.invoke(reader(1), "read")
        quorum = [server(1), server(2), server(3)]
        execution.deliver_requests(read_op, to=quorum)
        execution.deliver_replies(read_op, from_=quorum)
        assert read_op.complete
        assert read_op.result == 99
