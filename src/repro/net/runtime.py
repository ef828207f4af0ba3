"""Asyncio implementation of the :class:`repro.runtime.Runtime` seam.

:class:`AsyncRuntime` hosts unmodified :class:`~repro.sim.process.Process`
automata on an asyncio event loop.  Where the simulator's runtime routes
``emit`` onto a virtual-time event queue, this one routes it to a *send
function* per destination — a socket write registered by the transport
layer (:mod:`repro.net.server`, :mod:`repro.net.client`).  Time is the
machine's monotonic clock (shared across OS processes on one host, so
merged histories keep a meaningful real-time precedence order), timers
are ``loop.call_later``, and the history is the very same
:class:`~repro.spec.histories.History` the checkers consume.

The runtime also measures what the paper is about: it counts, per
operation, the number of *client communication phases* — bursts of
server-bound messages the client automaton emits within one step.  A
one-round ("fast") read shows exactly one phase; ABD's query+write-back
read shows two.  The count is protocol-agnostic (it never inspects
payloads beyond ``op_id``) and is cross-checked against the simulator's
trace-based round histogram by ``repro load --sim-check``.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ProtocolError
from repro.net.codec import FrameBuffer, encode_preamble
from repro.runtime import Runtime
from repro.sim.ids import ProcessId
from repro.sim.process import ClientProcess, Context
from repro.spec.histories import Operation

#: A transport send function: ``(src, dst, payload) -> None``.
RouteFn = Callable[[ProcessId, ProcessId, Any], None]


class AsyncRuntime(Runtime):
    """Socket-backed runtime: wall-clock time, route-table delivery.

    Args:
        seed: seed of the runtime's :attr:`rng` stream.
        origin: monotonic-clock instant treated as time 0.  Load shards
            in different OS processes share one origin so their recorded
            operation times are mutually comparable.
    """

    def __init__(self, seed: int = 0, origin: Optional[float] = None) -> None:
        super().__init__()
        self.origin = time.monotonic() if origin is None else origin
        self._routes: Dict[ProcessId, RouteFn] = {}
        self._default_route: Optional[RouteFn] = None
        self._rng = random.Random(seed)
        # Per-operation client-phase accounting (see module docstring).
        self._op_phases: Dict[int, int] = {}
        self._burst_seen: set = set()
        #: rounds (client phases) of every *completed* operation, by op id.
        self.rounds_of: Dict[int, int] = {}
        self.dropped_unroutable = 0

    # ------------------------------------------------------------------
    # Runtime interface

    @property
    def now(self) -> float:
        return time.monotonic() - self.origin

    @property
    def rng(self) -> random.Random:
        return self._rng

    def set_timer(self, delay: float, callback, tag: str = "timer") -> None:
        asyncio.get_running_loop().call_later(max(0.0, delay), callback)

    def emit(self, src: ProcessId, dst: ProcessId, payload: Any, step_id: int) -> None:
        sender = self.processes.get(src)
        if sender is not None and sender.crashed:
            return  # a crashed process sends nothing
        op_id = getattr(payload, "op_id", None)
        if op_id is not None and dst.is_server and src.is_client:
            # First server-bound message of this operation within the
            # current step opens a new communication phase.
            if op_id not in self._burst_seen:
                self._burst_seen.add(op_id)
                self._op_phases[op_id] = self._op_phases.get(op_id, 0) + 1
        route = self._routes.get(dst, self._default_route)
        if route is None:
            # Unlike the simulator, a network has no global membership
            # view: frames to unreachable parties vanish (and are
            # counted), exactly like sends to a dead TCP peer.
            self.dropped_unroutable += 1
            return
        route(src, dst, payload)

    def record_response(self, pid: ProcessId, result: Any, step_id: int) -> None:
        op = self.history.respond(pid, result, self.now)
        self.rounds_of[op.op_id] = self._op_phases.pop(op.op_id, 0)
        self._responded(op)

    # ------------------------------------------------------------------
    # routing

    def set_route(self, dst: ProcessId, route: RouteFn) -> None:
        """Register the send function used for messages to ``dst``."""
        self._routes[dst] = route

    def clear_route(self, dst: ProcessId) -> None:
        self._routes.pop(dst, None)

    def set_default_route(self, route: Optional[RouteFn]) -> None:
        """Fallback send function for destinations with no explicit route."""
        self._default_route = route

    # ------------------------------------------------------------------
    # driving automata

    def deliver(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        """Dispatch one inbound message to the local automaton for ``dst``.

        Unknown or crashed receivers drop the message silently — on a
        real network a frame to a dead process simply disappears.
        """
        receiver = self.processes.get(dst)
        if receiver is None or receiver.crashed:
            return
        step_id = self._next_step
        self._next_step = step_id + 1
        saved, self._burst_seen = self._burst_seen, set()
        try:
            receiver.on_message(payload, src, Context(self, dst, step_id))
        finally:
            self._burst_seen = saved

    def _begin(self, client: ClientProcess, kind: str, value: Any) -> Operation:
        pid = client.pid
        op = self.history.invoke(pid, kind, value=value, at=self.now)
        step_id = self._new_step()
        saved, self._burst_seen = self._burst_seen, set()
        try:
            client.begin_operation(op, Context(self, pid, step_id))
        finally:
            self._burst_seen = saved
        return op

    def abandon(self, pid: ProcessId) -> Optional[Operation]:
        """Abandon ``pid``'s in-flight operation after a client timeout.

        The operation stays in the history as incomplete, its phase
        accounting is discarded, and the automaton is reset so that a
        straggler server reply arriving later is ignored by the
        automaton's own op-id matching instead of tripping the
        one-op-per-process invariant.
        """
        op = self.history.abandon(pid)
        if op is None:
            return None
        self._op_phases.pop(op.op_id, None)
        client = self.processes.get(pid)
        if isinstance(client, ClientProcess):
            client.operation_completed()
        return op

    def crash(self, pid: ProcessId) -> None:
        """Mark a local process crashed: it stops sending and receiving."""
        self.process(pid).crashed = True


class FrameLink(asyncio.Protocol):
    """One end of one framed TCP connection, either side of the service.

    ``owner`` is the :class:`~repro.net.client.ClientPool` or
    :class:`~repro.net.server.NetServer` this link belongs to (its
    ``codec``, ``begin_batch`` and ``flush_batch`` are used); a subclass
    supplies :meth:`frame_received` and its connection bookkeeping.
    """

    def __init__(self, owner: Any) -> None:
        self.owner = owner
        self.transport: Optional[asyncio.Transport] = None
        self.buffer = FrameBuffer()
        self._batch: Optional[List[bytes]] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        # Announce our serializer first thing (the peer awaits or checks
        # it); bypasses chaos and batching — connection plumbing, not
        # protocol traffic.
        transport.write(encode_preamble(self.owner.codec.serializer))

    def frame_received(self, body: bytes) -> None:  # pragma: no cover - interface
        """Hand one complete frame body to the owner."""
        raise NotImplementedError

    def data_received(self, data: bytes) -> None:
        try:
            bodies = self.buffer.feed(data)
        except ProtocolError:
            # Framing desync is unrecoverable for this connection only.
            self.close()
            return
        owner = self.owner
        owner.begin_batch()
        try:
            for body in bodies:
                self.frame_received(body)
        finally:
            owner.flush_batch()

    def send_frame(self, frame: bytes) -> None:
        if self._batch is not None:
            self._batch.append(frame)
        elif self.transport is not None and not self.transport.is_closing():
            self.transport.write(frame)

    def begin_batch(self) -> None:
        """Coalesce subsequent ``send_frame`` calls until :meth:`flush`."""
        if self._batch is None:
            self._batch = []

    def flush(self) -> None:
        frames, self._batch = self._batch, None
        if frames and self.transport is not None and not self.transport.is_closing():
            if len(frames) == 1:
                self.transport.write(frames[0])
            else:
                self.transport.writelines(frames)

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()
