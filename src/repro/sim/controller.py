"""Scripted adversarial execution.

:class:`ScriptedExecution` gives a schedule complete control over message
delivery, which is exactly the power the paper's lower-bound proofs give
the adversary: every send first lands in a transit pool; the script then
delivers chosen envelopes in a chosen order, leaves others in transit
forever ("skipping a block"), or drops them (a sender that crashed before
sending).  Virtual time advances by one unit per step so that real-time
precedence between operations is always well defined.

The same :class:`~repro.sim.process.Process` automata used by the
free-running :class:`~repro.sim.runtime.Simulation` run here unchanged.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ScheduleError, SimulationError
from repro.runtime import Runtime
from repro.sim import trace as tr
from repro.sim.ids import ProcessId
from repro.sim.messages import Envelope
from repro.sim.network import HeldNetwork
from repro.sim.process import ClientProcess, Context
from repro.spec.histories import Operation


class ScriptedExecution(Runtime):
    """A run under full adversarial control of the scheduler.

    With :meth:`enable_undo` the execution additionally keeps an *undo
    journal*: every state mutation (a process stepping, an envelope
    moving in or out of transit, a history record) appends its inverse,
    and :meth:`checkpoint`/:meth:`rollback` pop deltas to return to any
    earlier point.  This is what lets the exploration engine backtrack
    in O(|delta|) instead of re-executing the schedule prefix.
    """

    def __init__(self, record_trace: bool = True) -> None:
        super().__init__()
        self.trace = tr.TraceLog(enabled=record_trace)
        self.network = HeldNetwork(deliver=self._dispatch)
        self._time = 0.0
        self._current_step = 0
        self._rng = None
        self._journal: Optional[List[Tuple]] = None
        #: Optional accountability overlay (see
        #: :class:`repro.accountability.recorder.StatementRecorder`).
        #: Statement signing is a straight-line concern: attach only to
        #: executions that never roll back (the exploration engines
        #: re-run violating schedules on a fresh execution to collect
        #: transcripts instead of recording during the search).
        self.statement_recorder = None
        #: Per-entity change stamps (process ids + "history"), drawn
        #: from one monotone clock and maintained only while the undo
        #: journal is enabled.  A stamp is journaled and restored on
        #: rollback, so ``(entity, stamp)`` identifies one exact state
        #: content forever — the exploration driver keys its
        #: canonicalisation caches on it.
        self.state_version: Dict = {}
        self._version_clock = 0
        #: stamp -> the process snapshot taken at that stamp: a second
        #: step out of the same state journals the first one's snapshot
        #: instead of copying the automaton again.  Dropped when the
        #: stamp is rolled back (never reissued): O(path) entries.
        self._snapshots: Dict = {}

    # ------------------------------------------------------------------
    # Runtime interface (see :mod:`repro.runtime`)

    @property
    def now(self) -> float:
        return self._time

    @property
    def rng(self):
        """Deterministic stream; fixed seed because scripted runs derive
        all nondeterminism from the schedule, never from chance."""
        if self._rng is None:
            from repro.sim.rng import substream

            self._rng = substream(0, "scripted")
        return self._rng

    def set_timer(self, delay: float, callback, tag: str = "timer") -> None:
        """Timers are not schedule choice points; scripted runs forbid them.

        The explorer enumerates message deliveries, crashes and quorum
        choices — a timer firing would be a hidden transition invisible
        to the schedule vocabulary, so automata that need timers cannot
        be explored (none in-tree do).
        """
        raise ScheduleError(
            "set_timer is not available under scripted execution; "
            "timers would be transitions the schedule cannot order"
        )

    def emit(self, src: ProcessId, dst: ProcessId, payload: Any, step_id: int) -> None:
        if dst not in self.processes:
            raise SimulationError(f"{src} sent to unknown process {dst}")
        if self.processes[src].crashed:
            return
        env = Envelope(src=src, dst=dst, payload=payload, send_time=self._time)
        self.trace.record(self._time, tr.SEND, src, step_id, step_id, env)
        self.network.submit(env)
        if self.statement_recorder is not None:
            self.statement_recorder.on_emit(env)

    def record_response(self, pid: ProcessId, result: Any, step_id: int) -> None:
        if self._journal is not None:
            pending = self.history.pending_of(pid)
            if pending is not None:
                self._journal.append(
                    ("respond", pending, pending.result, pending.responded_at)
                )
            self._bump("history")
        op = self.history.respond(pid, result, self._time)
        self.trace.record(
            self._time, tr.RESPONSE, pid, step_id, op_id=op.op_id, detail=result
        )
        self._responded(op)

    # ------------------------------------------------------------------
    # undo journal

    def enable_undo(self) -> None:
        """Start journaling mutations so :meth:`rollback` can undo them.

        Must be called before any schedule action executes; the journal
        is shared with the network so transit mutations are captured at
        their source.
        """
        if self._journal is None:
            self._journal = []
            self.network.journal = self._journal

    @property
    def undo_enabled(self) -> bool:
        return self._journal is not None

    def checkpoint(self) -> Tuple:
        """An O(1) capture of the current point; pass to :meth:`rollback`."""
        if self._journal is None:
            raise ScheduleError("undo journal not enabled on this execution")
        return (
            len(self._journal),
            self._time,
            self._next_step,
            self._current_step,
            self.network.sent_count,
        )

    def rollback(self, checkpoint: Tuple) -> None:
        """Pop journal deltas until the execution matches ``checkpoint``."""
        journal = self._journal
        if journal is None:
            raise ScheduleError("undo journal not enabled on this execution")
        mark, time, next_step, current_step, sent_count = checkpoint
        network = self.network
        history = self.history
        while len(journal) > mark:
            entry = journal.pop()
            kind = entry[0]
            if kind == "proc":
                entry[1].restore_state(entry[2])
            elif kind == "submit":
                network.transit.pop()
            elif kind == "release":
                network.delivered.pop()
                network.transit.insert(entry[2], entry[1])
            elif kind == "drop":
                network.dropped.pop()
                network.transit.insert(entry[2], entry[1])
            elif kind == "subst":
                network.transit[entry[2]] = entry[1]
            elif kind == "ver":
                self._snapshots.pop(self.state_version[entry[1]], None)
                self.state_version[entry[1]] = entry[2]
            elif kind == "respond":
                history.undo_respond(entry[1], entry[2], entry[3])
            elif kind == "invoke":
                history.undo_invoke(entry[1])
            elif kind == "crash":
                entry[1].crashed = False
            else:  # pragma: no cover - journal entries are internal
                raise ScheduleError(f"unknown journal entry {kind!r}")
        self._time = time
        self._next_step = next_step
        self._current_step = current_step
        network.sent_count = sent_count

    # ------------------------------------------------------------------
    # schedule actions

    def _tick(self) -> float:
        self._time += 1.0
        return self._time

    def _bump(self, key) -> None:
        versions = self.state_version
        self._journal.append(("ver", key, versions.get(key, 0)))
        self._version_clock += 1
        versions[key] = self._version_clock

    def _journal_step(self, process) -> None:
        """Journal ``process`` as it is now, then stamp the step."""
        stamp = self.state_version.get(process.pid) or process.pid
        snapshot = self._snapshots.get(stamp)
        if snapshot is None:
            snapshot = self._snapshots[stamp] = process.snapshot_state()
        self._journal.append(("proc", process, snapshot))
        self._bump(process.pid)

    def _begin(self, client: ClientProcess, kind: str, value: Any) -> Operation:
        """The operation's messages land in transit, undelivered."""
        pid = client.pid
        self._tick()
        op = self.history.invoke(pid, kind, value=value, at=self._time)
        step_id = self._new_step()
        self._current_step = step_id
        self.trace.record(
            self._time, tr.INVOKE, pid, step_id, op_id=op.op_id, detail=value
        )
        if self._journal is not None:
            self._journal.append(("invoke", op))
            self._journal_step(client)
            self._bump("history")
        client.begin_operation(op, Context(self, pid, step_id))
        return op

    def deliver(self, env: Envelope) -> None:
        """Deliver one specific in-transit envelope now."""
        self.network.release(env)

    def deliver_each(self, envelopes: Iterable[Envelope]) -> int:
        """Deliver the given envelopes, in order."""
        return self.network.release_all(list(envelopes))

    def crash(self, pid: ProcessId) -> None:
        process = self.process(pid)
        if not process.crashed:
            self._tick()
            process.crashed = True
            if self._journal is not None:
                self._journal.append(("crash", process))
                self._bump(pid)
            self.trace.record(self._time, tr.CRASH, pid, self._new_step())

    def drop(self, env: Envelope) -> None:
        self.network.drop(env)
        self.trace.record(self._time, tr.DROP, env.dst, self._current_step, env=env)

    def corrupt_reply(self, env: Envelope, payload: Any) -> Envelope:
        """Adversary hook: swap a held envelope's payload in place.

        This is how a Byzantine server's *content* choice enters a
        scripted run: the honest automaton has already emitted its
        reply into transit, and the adversary substitutes what actually
        travels.  Returns the corrupted twin (fresh envelope identity,
        same queue position); fully journaled, so undo-driven searches
        rewind corruptions exactly like honest mutations.

        When a statement recorder is attached, the corrupted reply is
        re-signed with the corrupted server's *real* key over the same
        sequence number — a Byzantine server signs its lies.
        """
        twin = self.network.substitute(env, payload)
        if self.statement_recorder is not None:
            self.statement_recorder.on_substitute(env, twin)
        return twin

    # ------------------------------------------------------------------
    # higher-level schedule vocabulary (the proofs' language)

    def in_transit(self, **filters) -> List[Envelope]:
        return self.network.in_transit(**filters)

    def requests_of(
        self, op: Operation, to: Optional[Iterable[ProcessId]] = None
    ) -> List[Envelope]:
        """In-transit messages of ``op`` from its client to servers.

        ``to`` restricts and *orders* the result: envelopes are returned
        grouped by the given destination order.
        """
        held = self.network.in_transit(src=op.proc, op_id=op.op_id)
        if to is None:
            return held
        ordered: List[Envelope] = []
        for dst in to:
            ordered.extend(env for env in held if env.dst == dst)
        return ordered

    def replies_of(
        self, op: Operation, from_: Optional[Iterable[ProcessId]] = None
    ) -> List[Envelope]:
        """In-transit replies addressed to the invoking client of ``op``."""
        held = self.network.in_transit(dst=op.proc, op_id=op.op_id)
        if from_ is None:
            return held
        sources = list(from_)
        ordered: List[Envelope] = []
        for src in sources:
            ordered.extend(env for env in held if env.src == src)
        return ordered

    def deliver_requests(
        self, op: Operation, to: Iterable[ProcessId]
    ) -> List[Envelope]:
        """Deliver ``op``'s client messages to the given processes, in
        the given order.  Each receiving server replies immediately (for
        fast protocols) and the reply is parked in transit."""
        batch = self.requests_of(op, to=to)
        self.network.release_all(batch)
        return batch

    def deliver_replies(
        self, op: Operation, from_: Iterable[ProcessId]
    ) -> List[Envelope]:
        """Deliver held replies for ``op`` back to its client, in order."""
        batch = self.replies_of(op, from_=from_)
        self.network.release_all(batch)
        return batch

    def complete_operation(
        self,
        op: Operation,
        via: Iterable[ProcessId],
        max_rounds: int = 8,
    ) -> Operation:
        """Run ``op`` to completion using only the processes in ``via``.

        Repeatedly delivers the client's outgoing messages to ``via`` and
        their replies back, which handles both one-round protocols and
        multi-round protocols (each iteration is one communication
        round-trip).  Messages to processes outside ``via`` stay in
        transit — the operation *skips* them.
        """
        allowed = list(via)
        for _ in range(max_rounds):
            if op.complete:
                return op
            sent = self.deliver_requests(op, to=allowed)
            replies = self.deliver_replies(op, from_=allowed)
            if op.complete:
                return op
            if not sent and not replies:
                raise ScheduleError(
                    f"operation {op.op_id} by {op.proc} cannot make progress "
                    f"via {', '.join(str(p) for p in allowed)}"
                )
        raise ScheduleError(
            f"operation {op.op_id} still incomplete after {max_rounds} rounds"
        )

    def run_to_quiescence(self, max_steps: int = 100_000) -> int:
        """Deliver everything in transit until the pool drains."""
        steps = 0
        while self.network.transit:
            env = self.network.transit[0]
            self.network.release(env)
            steps += 1
            if steps >= max_steps:
                raise ScheduleError("transit pool not draining; protocol loop?")
        return steps

    # ------------------------------------------------------------------
    # dispatch

    def _dispatch(self, env: Envelope) -> None:
        receiver = self.processes.get(env.dst)
        if receiver is None:
            raise SimulationError(f"delivery to unknown process {env.dst}")
        self._tick()
        if receiver.crashed:
            self.trace.record(self._time, tr.DROP, env.dst, self._current_step, env=env)
            return
        step_id = self._new_step()
        self._current_step = step_id
        if self._journal is not None:
            self._journal_step(receiver)
        self.trace.record(
            self._time,
            tr.DELIVER,
            env.dst,
            step_id,
            cause_step=self.trace.send_step_of(env),
            env=env,
        )
        if self.statement_recorder is not None:
            self.statement_recorder.on_deliver(env)
        receiver.on_message(env.payload, env.src, Context(self, env.dst, step_id))
