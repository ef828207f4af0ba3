"""The pluggable runtime seam.

A register automaton (:class:`repro.sim.process.Process`) never touches
an event queue, a socket, or a clock directly: every effect it has on
the world goes through the per-step :class:`~repro.sim.process.Context`,
which delegates to a :class:`Runtime`.  This module defines that seam.

Three implementations exist in-tree, and the *same unmodified automaton
classes* run under each of them:

* :class:`repro.sim.runtime.Simulation` — the free-running discrete-event
  simulator (virtual time, sampled latencies);
* :class:`repro.sim.controller.ScriptedExecution` — the adversarial
  scripted controller (delivery order chosen by a schedule);
* :class:`repro.net.runtime.AsyncRuntime` — real asyncio sockets
  (wall-clock time, length-prefixed wire frames).

What the :class:`Runtime` base owns — written once, the same under
every runtime: the operation ``history``, the ``processes`` table
(``add_process`` / ``add_processes`` / ``process``), the step-id
allocator, where an operation **begins** (:meth:`Runtime.invoke` refuses
anything but a live client, then calls the runtime's ``_begin``) and
where it **ends** (:meth:`Runtime._responded` frees the client, then
runs the ``on_response`` observers).

A fourth runtime (shared-memory, record/replay, ...) is one new subclass,
not a rewrite of the protocol layer.  It supplies what differs — *when*,
and over what medium, a step happens — under this contract:

* ``_begin`` records the invocation in ``history`` at the runtime's own
  clock and runs the client's first step; ``record_response`` records
  the response likewise and then calls ``_responded``.  Whatever drives
  delivery calls ``Process.on_message`` with a fresh step id.
* ``emit`` is fire-and-forget: the runtime owns delivery timing and may
  reorder or (for crashed/faulty parties) drop messages, but must never
  duplicate them (the model's channels do not duplicate).
* ``now`` is monotone non-decreasing within a run.  Units are
  runtime-defined (virtual delays in the simulator, seconds on sockets);
  correctness judgements only use relative order.
* ``set_timer`` schedules a callback after a delay in the runtime's own
  time units.  No in-tree paper automaton uses timers (the model is
  asynchronous), but transports and workload drivers do.
* ``rng`` is a deterministic, seed-derived stream: two runs of the same
  runtime with the same seed observe identical draws.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List

from repro.errors import SimulationError
from repro.sim.ids import ProcessId
from repro.sim.process import ClientProcess, Process
from repro.spec.histories import History, Operation


class Runtime:
    """Host of a set of automata; one per execution (see module docstring)."""

    def __init__(self) -> None:
        self.history = History()
        self.processes: Dict[ProcessId, Process] = {}
        # Plain int allocator (cheaper than itertools.count on the hot
        # paths, which inline it, and restorable by the undo journal).
        self._next_step = 1
        self._on_response: List[Callable[[Operation], None]] = []

    # ------------------------------------------------------------------
    # topology

    def add_process(self, process: Process) -> Process:
        if process.pid in self.processes:
            raise SimulationError(f"duplicate process id {process.pid}")
        self.processes[process.pid] = process
        return process

    def add_processes(self, processes: Iterable[Process]) -> None:
        for process in processes:
            self.add_process(process)

    def process(self, pid: ProcessId) -> Process:
        try:
            return self.processes[pid]
        except KeyError:
            raise SimulationError(f"no process {pid} in this runtime") from None

    def _new_step(self) -> int:
        step_id = self._next_step
        self._next_step = step_id + 1
        return step_id

    # ------------------------------------------------------------------
    # operations: one place where each begins, one where each ends

    def invoke(self, pid: ProcessId, kind: str, value: Any = None) -> Operation:
        """Invoke an operation on a live client, at the current time."""
        client = self.process(pid)
        if not isinstance(client, ClientProcess):
            raise SimulationError(f"{pid} is not a client; cannot invoke {kind}")
        if client.crashed:
            raise SimulationError(f"{pid} has crashed; cannot invoke {kind}")
        return self._begin(client, kind, value)

    def _begin(
        self, client: ClientProcess, kind: str, value: Any
    ) -> Operation:  # pragma: no cover - interface
        """Record the invocation and run the client's first step."""
        raise NotImplementedError

    def on_response(self, callback: Callable[[Operation], None]) -> None:
        """Register a hook fired after every operation response."""
        self._on_response.append(callback)

    def _responded(self, op: Operation) -> None:
        """Tail of every ``record_response``: free the client, then tell
        the observers (which may invoke the client's next operation)."""
        client = self.processes[op.proc]
        if isinstance(client, ClientProcess):
            client.operation_completed()
        for callback in self._on_response:
            callback(op)

    # ------------------------------------------------------------------
    # what a runtime supplies

    @property
    def now(self) -> float:  # pragma: no cover - interface
        """Current time in this runtime's units (monotone within a run)."""
        raise NotImplementedError

    @property
    def rng(self) -> random.Random:  # pragma: no cover - interface
        """Seed-derived random stream owned by the runtime."""
        raise NotImplementedError

    def emit(
        self, src: ProcessId, dst: ProcessId, payload: Any, step_id: int
    ) -> None:  # pragma: no cover - interface
        """Send ``payload`` from ``src`` to ``dst``; delivery is async."""
        raise NotImplementedError

    def record_response(
        self, pid: ProcessId, result: Any, step_id: int
    ) -> None:  # pragma: no cover - interface
        """Complete the pending operation of client ``pid``."""
        raise NotImplementedError

    def set_timer(
        self, delay: float, callback: Callable[[], None], tag: str = "timer"
    ) -> None:  # pragma: no cover - interface
        """Run ``callback`` after ``delay`` of this runtime's time."""
        raise NotImplementedError
