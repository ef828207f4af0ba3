"""Process automata.

A process is a deterministic automaton in the style of the paper's model
(Section 2.2): a step consumes one message (or an invocation) and
atomically updates local state and emits a set of messages.  The same
automaton classes run unchanged under every implementation of the
:class:`repro.runtime.Runtime` seam: the free-running randomized runtime
(:mod:`repro.sim.runtime`), the scripted adversarial controller
(:mod:`repro.sim.controller`) and the asyncio socket transport
(:mod:`repro.net.runtime`); the difference between them is purely *when*
(and over what medium) sent messages are delivered.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ProtocolError
from repro.sim.ids import ProcessId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.runtime import Runtime
    from repro.spec.histories import Operation


class Context:
    """Capabilities handed to an automaton for the duration of one step.

    The context is how an automaton acts on the world: sending messages
    and (for clients) completing the pending operation.  It is provided
    by the runtime per step — and may be a recycled object rebound to the
    new step — so automata must not store it.
    """

    __slots__ = ("_runtime", "_pid", "_step_id")

    def __init__(self, runtime: Runtime, pid: ProcessId, step_id: int) -> None:
        self._runtime = runtime
        self._pid = pid
        self._step_id = step_id

    @property
    def pid(self) -> ProcessId:
        return self._pid

    @property
    def now(self) -> float:
        return self._runtime.now

    @property
    def rng(self) -> random.Random:
        """The runtime's seed-derived random stream."""
        return self._runtime.rng

    @property
    def step_id(self) -> int:
        return self._step_id

    def send(self, dst: ProcessId, payload: Any) -> None:
        """Emit a message to ``dst``; delivery timing is runtime-defined."""
        self._runtime.emit(self._pid, dst, payload, self._step_id)

    def multicast(self, dsts, payload_for) -> None:
        """Send to many destinations.

        ``payload_for`` may be a fixed payload or a callable mapping the
        destination to a payload (used when payloads embed the receiver).
        """
        for dst in dsts:
            payload = payload_for(dst) if callable(payload_for) else payload_for
            self.send(dst, payload)

    def complete(self, result: Any) -> None:
        """Complete the pending operation of this (client) process."""
        self._runtime.record_response(self._pid, result, self._step_id)

    def set_timer(
        self, delay: float, callback: Callable[[], None], tag: str = "timer"
    ) -> None:
        """Schedule ``callback`` after ``delay`` of runtime time."""
        self._runtime.set_timer(delay, callback, tag)


class Process:
    """Base automaton.

    Subclasses implement :meth:`on_message`.  ``crashed`` is managed by
    the runtime; a crashed process takes no further steps.
    """

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self.crashed = False

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        raise NotImplementedError

    def describe_state(self) -> str:
        """Optional debugging hook; protocols override with state dumps."""
        return f"{type(self).__name__}({self.pid})"

    # ------------------------------------------------------------------
    # snapshot protocol (used by the incremental exploration engine)

    def snapshot_state(self) -> Any:
        """An opaque copy of this automaton's mutable state.

        The default captures every instance attribute with the generic
        copier in :mod:`repro.sim.state`; automata with state it cannot
        represent (none in-tree) override this pair of hooks.
        """
        from repro.sim.state import snapshot_process

        return snapshot_process(self)

    def restore_state(self, snapshot: Any) -> None:
        """Restore the state captured by :meth:`snapshot_state`."""
        from repro.sim.state import restore_process

        restore_process(self, snapshot)


class ClientProcess(Process):
    """A reader or writer: a process that additionally accepts invocations.

    The runtime calls :meth:`begin_operation` when the workload invokes an
    operation; the automaton later calls ``ctx.complete(result)``.  At
    most one operation is pending at a time, matching the paper's
    assumption that "each process invokes at most one invocation at a
    time".
    """

    def __init__(self, pid: ProcessId) -> None:
        super().__init__(pid)
        self.current_op: Optional["Operation"] = None

    def begin_operation(self, op: "Operation", ctx: Context) -> None:
        if self.current_op is not None:
            raise ProtocolError(
                f"{self.pid} invoked {op.kind} while op {self.current_op.op_id} "
                "is still pending; the model allows one outstanding operation"
            )
        self.current_op = op
        self.on_invoke(op, ctx)

    def operation_completed(self) -> None:
        """Called by the runtime right after the response is recorded."""
        self.current_op = None

    def on_invoke(self, op: "Operation", ctx: Context) -> None:
        raise NotImplementedError

