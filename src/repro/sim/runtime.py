"""Free-running simulation runtime.

:class:`Simulation` wires processes, the event queue, a latency-sampling
network, the trace log and the operation history together.  It is the
mode used by workloads, fuzz tests and benchmarks; the adversarial
counterpart is :class:`repro.sim.controller.ScriptedExecution`.

Hot-path notes: message delivery is dispatched straight from the event
queue's jump table (no closure per message), trace recording is guarded
so the cheap-trace mode skips even the call, and the per-step
:class:`Context` handed to automata is a single recycled object — the
model already forbids automata from storing contexts across steps.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import SimulationError
from repro.runtime import Runtime
from repro.sim import trace as tr
from repro.sim.events import EventQueue, VirtualClock, run_until_quiet
from repro.sim.ids import ProcessId
from repro.sim.latency import LatencyModel
from repro.sim.messages import Envelope
from repro.sim.network import SimNetwork
from repro.sim.process import ClientProcess, Context
from repro.sim.rng import substream
from repro.spec.histories import Operation


class Simulation(Runtime):
    """Discrete-event simulation of a process system.

    Args:
        seed: root seed; all randomness (latency draws) derives from it.
        latency: latency model for the network; default constant 1.0.
        fifo: enforce per-link FIFO delivery (the model does not require
            it; some tests enable it for determinism of content).
        record_trace: disable to run in the cheap trace mode — large
            sweeps and benchmarks only consume histories and metrics,
            and skipping trace recording saves roughly a third of the
            run time.
    """

    def __init__(
        self,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        fifo: bool = False,
        record_trace: bool = True,
    ) -> None:
        super().__init__()
        self.seed = seed
        self.clock = VirtualClock()
        self.queue = EventQueue()
        self._tracing = record_trace
        self.trace = tr.TraceLog(enabled=record_trace)
        self._current_step = 0
        self._crash_after_sends: Dict[ProcessId, int] = {}
        self._automata_rng = None  # lazy; most runs never draw from it
        #: Optional accountability overlay (see
        #: :class:`repro.accountability.recorder.StatementRecorder`).
        self.statement_recorder = None
        self._step_ctx = Context(self, None, 0)
        self.network = SimNetwork(
            queue=self.queue,
            clock=self.clock,
            deliver=self._dispatch,
            latency=latency,
            rng=substream(seed, "latency"),
            fifo=fifo,
            on_drop=self._record_drop,
        )
        # Hot-path bindings; anything replacing ``network`` or
        # ``processes`` wholesale must call _rebind_hot_paths().
        self._rebind_hot_paths()

    def _rebind_hot_paths(self) -> None:
        self._submit = self.network.submit
        self._processes_get = self.processes.get

    # ------------------------------------------------------------------
    # Runtime interface (see :mod:`repro.runtime`)

    @property
    def now(self) -> float:
        return self.clock._now

    @property
    def rng(self):
        """Seed-derived stream for automata (distinct from latency draws)."""
        if self._automata_rng is None:
            self._automata_rng = substream(self.seed, "automata")
        return self._automata_rng

    def set_timer(self, delay: float, callback, tag: str = "timer") -> None:
        """Schedule ``callback`` ``delay`` simulated time units from now."""
        if delay < 0:
            raise SimulationError(f"timer delay must be >= 0, got {delay}")
        self.queue.schedule(self.clock._now + delay, callback, tag=tag)

    def emit(self, src: ProcessId, dst: ProcessId, payload: Any, step_id: int) -> None:
        if dst not in self.processes:
            raise SimulationError(f"{src} sent to unknown process {dst}")
        sender = self.processes[src]
        if sender.crashed:
            return  # a crashed process sends nothing
        now = self.clock._now
        env = Envelope(src=src, dst=dst, payload=payload, send_time=now)
        if self._crash_after_sends:
            budget = self._crash_after_sends.get(src)
            if budget is not None:
                if budget <= 0:
                    self._crash_now(src, step_id)
                    self._record_drop(env)
                    return
                self._crash_after_sends[src] = budget - 1
                if budget - 1 == 0:
                    # message goes out, then the sender halts
                    if self._tracing:
                        self.trace.record(now, tr.SEND, src, step_id, step_id, env)
                    self._submit(env)
                    if self.statement_recorder is not None:
                        self.statement_recorder.on_emit(env)
                    self._crash_now(src, step_id)
                    return
        if self._tracing:
            self.trace.record(now, tr.SEND, src, step_id, step_id, env)
        self._submit(env)
        if self.statement_recorder is not None:
            self.statement_recorder.on_emit(env)

    def record_response(self, pid: ProcessId, result: Any, step_id: int) -> None:
        now = self.clock._now
        op = self.history.respond(pid, result, now)
        if self._tracing:
            self.trace.record(
                now, tr.RESPONSE, pid, step_id, op_id=op.op_id, detail=result
            )
        self._responded(op)

    # ------------------------------------------------------------------
    # invocations

    def _begin(self, client: ClientProcess, kind: str, value: Any) -> Operation:
        pid = client.pid
        op = self.history.invoke(pid, kind, value=value, at=self.now)
        step_id = self._new_step()
        self._current_step = step_id
        if self._tracing:
            self.trace.record(
                self.now, tr.INVOKE, pid, step_id, op_id=op.op_id, detail=value
            )
        client.begin_operation(op, Context(self, pid, step_id))
        return op

    def invoke_at(
        self, time: float, pid: ProcessId, kind: str, value: Any = None
    ) -> None:
        """Schedule an invocation for a future instant."""
        self.queue.schedule(time, lambda: self.invoke(pid, kind, value), tag="invoke")

    def at(self, time: float, action: Callable[[], None], tag: str = "user") -> None:
        """Schedule an arbitrary action (workload drivers use this)."""
        self.queue.schedule(time, action, tag=tag)

    # ------------------------------------------------------------------
    # faults

    def crash(self, pid: ProcessId) -> None:
        """Crash a process immediately."""
        self._crash_now(pid, step_id=self._new_step())

    def crash_at(self, time: float, pid: ProcessId) -> None:
        self.queue.schedule(time, lambda: self.crash(pid), tag=f"crash:{pid}")

    def crash_after_sends(self, pid: ProcessId, sends: int) -> None:
        """Let ``pid`` send ``sends`` more messages, then crash it.

        This realises the paper's caveat that "while sending messages to
        a set of processes, the sending process may crash after sending
        messages to an arbitrary subset".
        """
        if sends < 0:
            raise SimulationError("send budget must be non-negative")
        self._crash_after_sends[pid] = sends

    def _crash_now(self, pid: ProcessId, step_id: int) -> None:
        process = self.process(pid)
        if process.crashed:
            return
        process.crashed = True
        self.trace.record(self.now, tr.CRASH, pid, step_id)

    def _record_drop(self, env: Envelope) -> None:
        self.trace.record(self.now, tr.DROP, env.src, self._current_step, env=env)

    # ------------------------------------------------------------------
    # execution

    def _dispatch(self, env: Envelope) -> None:
        receiver = self._processes_get(env.dst)
        if receiver is None:
            raise SimulationError(f"delivery to unknown process {env.dst}")
        if receiver.crashed:
            if self._tracing:
                self.trace.record(
                    self.clock._now, tr.DROP, env.dst, self._current_step, env=env
                )
            return
        step_id = self._next_step
        self._next_step = step_id + 1
        self._current_step = step_id
        if self._tracing:
            self.trace.record(
                self.clock._now,
                tr.DELIVER,
                env.dst,
                step_id,
                cause_step=self.trace.send_step_of(env),
                env=env,
            )
        if self.statement_recorder is not None:
            self.statement_recorder.on_deliver(env)
        ctx = self._step_ctx
        ctx._pid = env.dst
        ctx._step_id = step_id
        receiver.on_message(env.payload, env.src, ctx)

    def run(
        self, max_events: int = 1_000_000, deadline: Optional[float] = None
    ) -> int:
        """Run until quiescence (or deadline/budget); returns event count."""
        return run_until_quiet(self.queue, self.clock, max_events, deadline)

    def run_until(
        self, condition: Callable[[], bool], max_events: int = 1_000_000
    ) -> None:
        """Run events one at a time until ``condition()`` becomes true.

        The budget is checked *before* each event, after re-evaluating the
        condition, so the call cannot fail once the awaited condition has
        already become true — even when it became true on exactly the
        budget-th event.
        """
        executed = 0
        queue = self.queue
        while not condition():
            if executed >= max_events:
                raise SimulationError("event budget exhausted in run_until")
            entry = queue.pop_entry()
            if entry is None:
                raise SimulationError(
                    "simulation quiesced before the awaited condition held"
                )
            self.clock.advance_to(entry[0])
            queue.dispatch_entry(entry)
            executed += 1
