"""Message envelopes.

The network layer moves :class:`Envelope` objects: a record of sender,
receiver, payload and the send instant.  Payloads are protocol-defined
frozen dataclasses (see :mod:`repro.registers.messages`); the simulation
kernel never inspects them beyond an optional ``op_id`` attribute used
for tracing and round counting.

``Envelope`` is a plain ``__slots__`` class rather than a dataclass: one
envelope is allocated per message on the simulation's busiest path, and
slot attribute storage is measurably cheaper than dataclass construction.
Envelopes compare by identity, which is what every consumer (transit
pools, traces) relies on; treat them as immutable once submitted.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional

from repro.sim.ids import ProcessId

_envelope_counter = itertools.count(1)


def _next_envelope_id() -> int:
    return next(_envelope_counter)


class Envelope:
    """One message in flight.

    Attributes:
        src: sender process id.
        dst: receiver process id.
        payload: protocol message (opaque to the kernel).
        send_time: virtual time at which the send step happened.
        env_id: globally unique id; also provides a stable tiebreak so
            that runs are deterministic for a fixed seed and schedule.
    """

    __slots__ = ("src", "dst", "payload", "send_time", "env_id")

    def __init__(
        self,
        src: ProcessId,
        dst: ProcessId,
        payload: Any,
        send_time: float = 0.0,
        env_id: Optional[int] = None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload
        self.send_time = send_time
        self.env_id = _next_envelope_id() if env_id is None else env_id

    @property
    def op_id(self) -> Optional[int]:
        """Operation id carried by the payload, if any.

        All register-protocol messages carry the id of the operation that
        caused them, which lets the trace analyser attribute messages to
        operations without understanding protocol internals.
        """
        return getattr(self.payload, "op_id", None)

    def describe(self) -> str:
        """Short human-readable rendering used by traces and diagrams."""
        name = type(self.payload).__name__
        return f"#{self.env_id} {self.src}->{self.dst} {name}"

    def __repr__(self) -> str:
        return (
            f"Envelope(src={self.src!r}, dst={self.dst!r}, "
            f"payload={self.payload!r}, send_time={self.send_time!r}, "
            f"env_id={self.env_id})"
        )
