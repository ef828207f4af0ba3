"""Execution traces.

A trace is the ground truth from which the specification layer judges a
run: every invocation, response, send, delivery, drop and crash is
recorded with the virtual time and the *step* that caused it.

Steps matter because the paper's fastness definition is step-based: a
process answers a fast read "in the step that receives it, or in a
subsequent step in which it receives no other message".  In this kernel a
step processes exactly one event, so the condition becomes: the reply's
``cause_step`` equals the step that delivered the request.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.sim.ids import ProcessId
from repro.sim.messages import Envelope

INVOKE = "invoke"
RESPONSE = "response"
SEND = "send"
DELIVER = "deliver"
DROP = "drop"
CRASH = "crash"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded occurrence.

    Attributes:
        seq: global order of the event within the run.
        time: virtual time.
        kind: one of the module constants.
        pid: the process taking the step (receiver for deliveries,
            sender for sends, invoker for invocations).
        step_id: id of the step during which the event happened.  All
            events emitted while one message is being handled share the
            handler's step id.
        cause_step: for sends, the step that produced them (equal to
            ``step_id``); for deliveries, the step that sent the message.
        env: the envelope for message events.
        op_id: operation attribution if known.
        detail: free-form extra payload (operation values and so on).
    """

    seq: int
    time: float
    kind: str
    pid: ProcessId
    step_id: int
    cause_step: Optional[int] = None
    env: Optional[Envelope] = None
    op_id: Optional[int] = None
    detail: Any = None


class TraceLog:
    """Append-only event log with query helpers used by the checkers."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[TraceEvent] = []
        self._seq = itertools.count(1)
        self._send_step_of_env: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.events)

    def record(
        self,
        time: float,
        kind: str,
        pid: ProcessId,
        step_id: int,
        cause_step: Optional[int] = None,
        env: Optional[Envelope] = None,
        op_id: Optional[int] = None,
        detail: Any = None,
    ) -> Optional[TraceEvent]:
        if not self.enabled:
            return None
        if env is not None and op_id is None:
            op_id = env.op_id
        event = TraceEvent(
            seq=next(self._seq),
            time=time,
            kind=kind,
            pid=pid,
            step_id=step_id,
            cause_step=cause_step,
            env=env,
            op_id=op_id,
            detail=detail,
        )
        self.events.append(event)
        if kind == SEND and env is not None:
            self._send_step_of_env[env.env_id] = step_id
        return event

    # ------------------------------------------------------------------
    # queries

    def for_op(self, op_id: int) -> List[TraceEvent]:
        return [event for event in self.events if event.op_id == op_id]

    def sends_by(self, pid: ProcessId, op_id: Optional[int] = None) -> List[TraceEvent]:
        return [
            event
            for event in self.events
            if event.kind == SEND
            and event.pid == pid
            and (op_id is None or event.op_id == op_id)
        ]

    def send_step_of(self, env: Envelope) -> Optional[int]:
        """Step that emitted the given envelope."""
        return self._send_step_of_env.get(env.env_id)

    def message_count(self, op_id: Optional[int] = None) -> int:
        """Number of sends, optionally restricted to one operation."""
        return len(
            [
                event
                for event in self.events
                if event.kind == SEND and (op_id is None or event.op_id == op_id)
            ]
        )

    def render(self, limit: Optional[int] = None) -> str:
        """Pretty-print the trace (for examples and debugging)."""
        lines = []
        for event in self.events[: limit or len(self.events)]:
            if event.env is not None:
                what = event.env.describe()
            else:
                what = repr(event.detail) if event.detail is not None else ""
            lines.append(
                f"[{event.seq:5d}] t={event.time:10.4f} {event.kind:9s} "
                f"{str(event.pid):4s} step={event.step_id:<5d} {what}"
            )
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more events)")
        return "\n".join(lines)

