"""Tests for the free-running simulation runtime, and for what every
runtime inherits from :class:`repro.runtime.Runtime`."""

from collections import deque

import pytest

from repro.errors import SimulationError
from repro.net.runtime import AsyncRuntime
from repro.net.server import build_net_cluster
from repro.registers.base import ClusterConfig
from repro.sim import trace as tr
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server
from repro.sim.latency import ConstantLatency
from repro.sim.process import ClientProcess, Process
from repro.sim.runtime import Simulation


class Echo(Process):
    """Replies 'pong' to every 'ping'."""

    def on_message(self, payload, src, ctx):
        if payload == "ping":
            ctx.send(src, "pong")


class PingClient(ClientProcess):
    """Sends ping to every server; completes on first pong."""

    def __init__(self, pid, servers):
        super().__init__(pid)
        self.servers = servers
        self.pongs = 0

    def on_invoke(self, op, ctx):
        for dst in self.servers:
            ctx.send(dst, "ping")

    def on_message(self, payload, src, ctx):
        if payload == "pong":
            self.pongs += 1
            if self.current_op is not None:
                ctx.complete(f"pong from {src}")


def make_sim(server_count=3):
    sim = Simulation(seed=0, latency=ConstantLatency(1.0))
    server_ids = [server(i) for i in range(1, server_count + 1)]
    for pid in server_ids:
        sim.add_process(Echo(pid))
    client = PingClient(reader(1), server_ids)
    sim.add_process(client)
    return sim, client


def _simulation():
    sim = Simulation(seed=0, latency=ConstantLatency(1.0))
    return sim, sim.run


def _scripted():
    run = ScriptedExecution()
    return run, run.run_to_quiescence


def _loopback():
    # An AsyncRuntime with no sockets: every emit queues on a loop-back
    # default route, and driving it delivers the queue in order.
    runtime, frames = AsyncRuntime(), deque()
    runtime.set_default_route(lambda *frame: frames.append(frame))

    def drive():
        while frames:
            runtime.deliver(*frames.popleft())

    return runtime, drive


@pytest.fixture(params=[_simulation, _scripted, _loopback])
def hosted(request):
    """(runtime, drive, client): two Echo servers and one PingClient."""
    runtime, drive = request.param()
    server_ids = [server(1), server(2)]
    runtime.add_processes(Echo(pid) for pid in server_ids)
    client = runtime.add_process(PingClient(reader(1), server_ids))
    return runtime, drive, client


class TestEveryRuntimeHostsAlike:
    """The process table, the invocation guard and the response tail are
    :class:`repro.runtime.Runtime`'s: one behaviour under all three."""

    def test_duplicate_pid_refused(self, hosted):
        runtime, _, _ = hosted
        with pytest.raises(SimulationError, match="duplicate process id s1"):
            runtime.add_process(Echo(server(1)))

    def test_unknown_pid_named_in_the_error(self, hosted):
        runtime, _, _ = hosted
        with pytest.raises(SimulationError, match="no process r9"):
            runtime.process(reader(9))
        with pytest.raises(SimulationError, match="no process r9"):
            runtime.invoke(reader(9), "read")

    def test_invoke_on_a_server_refused(self, hosted):
        runtime, _, _ = hosted
        message = "s1 is not a client; cannot invoke read"
        with pytest.raises(SimulationError, match=message):
            runtime.invoke(server(1), "read")
        assert len(runtime.history) == 0

    def test_invoke_on_a_crashed_client_refused(self, hosted):
        runtime, _, _ = hosted
        runtime.crash(reader(1))
        message = "r1 has crashed; cannot invoke read"
        with pytest.raises(SimulationError, match=message):
            runtime.invoke(reader(1), "read")
        assert len(runtime.history) == 0

    def test_on_response_fires_once_per_completed_operation(self, hosted):
        runtime, drive, client = hosted
        seen = []

        def observer(op):
            # The client is already free when observers run, so a
            # closed-loop driver may invoke its next operation from here.
            seen.append((op.op_id, client.current_op))
            if len(seen) == 1:
                runtime.invoke(reader(1), "read")

        runtime.on_response(observer)
        first = runtime.invoke(reader(1), "read")
        drive()
        second = runtime.history.operations[1]
        assert first.complete and second.complete
        assert seen == [(first.op_id, None), (second.op_id, None)]


def _loopback_cluster(protocol):
    runtime, drive = _loopback()
    cluster = build_net_cluster(protocol, ClusterConfig(S=4, t=1, R=1), enforce=False)
    runtime.add_processes(cluster.all_processes())
    return runtime, drive, cluster.readers[0].pid


class TestAsyncRuntimePhases:
    """A phase is one step's burst of server-bound sends: the S sends of
    one step count once, and a second step's sends count again."""

    @pytest.mark.parametrize("protocol, phases", [("fast-crash", 1), ("abd", 2)])
    def test_phases_count_steps_not_sends(self, protocol, phases):
        runtime, drive, pid = _loopback_cluster(protocol)
        op = runtime.invoke(pid, "read")
        drive()
        assert op.complete
        assert runtime.rounds_of == {op.op_id: phases}
        assert runtime._phase_step == {} and runtime._op_phases == {}

    def test_abandoned_op_leaves_no_phase_entry(self):
        runtime, _, pid = _loopback_cluster("abd")
        op = runtime.invoke(pid, "read")
        assert list(runtime._phase_step) == [op.op_id]
        assert runtime.abandon(pid) is op
        assert runtime._phase_step == {} and runtime._op_phases == {}
        assert runtime.rounds_of == {}


class TestBasics:
    def test_invoke_and_complete(self):
        sim, client = make_sim()
        op = sim.invoke(reader(1), "read")
        sim.run()
        assert op.complete
        assert op.result.startswith("pong from")

    def test_duplicate_process_rejected(self):
        sim, _ = make_sim()
        with pytest.raises(SimulationError):
            sim.add_process(Echo(server(1)))

    def test_send_to_unknown_process_raises(self):
        sim = Simulation()
        sim.add_process(PingClient(reader(1), [server(9)]))
        with pytest.raises(SimulationError):
            sim.invoke(reader(1), "read")

    def test_invoke_on_server_rejected(self):
        sim, _ = make_sim()
        with pytest.raises(SimulationError):
            sim.invoke(server(1), "read")

    def test_history_records_times(self):
        sim, _ = make_sim()
        sim.invoke_at(5.0, reader(1), "read")
        sim.run()
        op = sim.history.operations[0]
        assert op.invoked_at == 5.0
        assert op.responded_at == pytest.approx(7.0)  # 1.0 out + 1.0 back

    def test_on_response_hook_fires(self):
        sim, _ = make_sim()
        seen = []
        sim.on_response(lambda op: seen.append(op.op_id))
        sim.invoke(reader(1), "read")
        sim.run()
        assert len(seen) == 1


class TestCrashes:
    def test_crashed_server_stops_replying(self):
        sim, client = make_sim(server_count=2)
        sim.crash(server(1))
        sim.crash(server(2))
        sim.invoke(reader(1), "read")
        sim.run()
        assert not sim.history.operations[0].complete

    def test_crash_at_scheduled_time(self):
        sim, client = make_sim(server_count=1)
        sim.crash_at(0.5, server(1))  # before the ping arrives at t=1
        sim.invoke(reader(1), "read")
        sim.run()
        assert not sim.history.operations[0].complete
        # the delivery was recorded as a drop
        assert any(e.kind == tr.DROP for e in sim.trace.events)

    def test_crash_after_sends_partial_multicast(self):
        sim, client = make_sim(server_count=3)
        sim.crash_after_sends(reader(1), 2)
        sim.invoke(reader(1), "read")
        sim.run()
        sends = sim.trace.sends_by(reader(1))
        assert len(sends) == 2  # third ping never went out
        assert sim.process(reader(1)).crashed

    def test_crashed_client_cannot_invoke(self):
        sim, _ = make_sim()
        sim.crash(reader(1))
        with pytest.raises(SimulationError):
            sim.invoke(reader(1), "read")

    def test_crash_is_recorded_once(self):
        sim, _ = make_sim()
        sim.crash(server(1))
        sim.crash(server(1))
        crashes = [e for e in sim.trace.events if e.kind == tr.CRASH]
        assert len(crashes) == 1


class TestDeterminism:
    def test_same_seed_same_history(self):
        def run(seed):
            sim, _ = make_sim()
            sim.seed = seed
            sim.invoke(reader(1), "read")
            sim.run()
            return [
                (e.kind, str(e.pid), e.time)
                for e in sim.trace.events
            ]

        assert run(1) == run(1)


class TestRunUntil:
    def test_run_until_condition(self):
        sim, client = make_sim()
        op = sim.invoke(reader(1), "read")
        sim.run_until(lambda: op.complete)
        assert op.complete

    def test_run_until_raises_if_never(self):
        sim, _ = make_sim()
        with pytest.raises(SimulationError):
            sim.run_until(lambda: False)

    def test_budget_cannot_fire_after_condition_holds(self):
        """Regression: the budget check must not raise when the awaited
        condition became true on exactly the budget-th event."""
        sim, _ = make_sim(server_count=1)
        hits = []
        for step in range(5):
            sim.at(float(step), lambda step=step: hits.append(step))
        # the condition becomes true while executing the 3rd event —
        # exactly when the budget is exhausted
        sim.run_until(lambda: len(hits) >= 3, max_events=3)
        assert hits == [0, 1, 2]

    def test_budget_still_enforced_before_condition(self):
        sim, _ = make_sim(server_count=1)
        hits = []
        for step in range(5):
            sim.at(float(step), lambda step=step: hits.append(step))
        with pytest.raises(SimulationError, match="budget"):
            sim.run_until(lambda: len(hits) >= 5, max_events=3)

    def test_run_until_dispatches_deliveries(self):
        """run_until must handle fast-path DELIVER entries, not only
        scheduled callables."""
        sim, client = make_sim(server_count=3)
        sim.invoke(reader(1), "read")
        sim.run_until(lambda: client.pongs >= 2)
        assert client.pongs >= 2
