"""Client side of the networked register service.

A :class:`ClientPool` multiplexes *many* client automata (readers and
writers — the same classes the simulator runs) onto one asyncio event
loop with exactly ``S`` outbound TCP connections, one per server.  This
is what makes hundreds of thousands of virtual clients per OS process
practical: a client automaton is just a small Python object plus a route
table entry; the socket count stays constant.

Each connection is a :class:`PoolConnection`, a
:class:`~repro.net.runtime.FrameLink` (framing, preamble, write-through
sends) that hands frames to ``handle_frame`` and reports its loss.

``run_op`` bridges the automaton world (synchronous steps, callbacks)
into coroutine land: it invokes an operation on the pool's runtime and
awaits one future, resolved by the runtime's ``on_response`` hook when
the automaton completes the operation.

The pool is chaos-hardened (see :mod:`repro.net.chaos`):

* **Reconnect with backoff.**  A lost or initially unreachable server
  link is retried forever with exponential backoff + seeded jitter
  instead of being treated as crashed for the rest of the run.
* **Frame-level retransmission.**  The register automata assume the
  paper's reliable channels and never retransmit; under lossy links the
  pool re-sends an in-flight operation's recorded frames on a fixed
  cadence until the automaton decides.  Safe because the protocols'
  messages are idempotent (servers dedupe by sender and op id) and
  invisible to round accounting (retransmits bypass ``emit``).
* **Per-op deadlines that clean up.**  A timed-out ``run_op`` abandons
  the operation in the runtime (history keeps it as incomplete), frees
  the waiter, and leaves the pid immediately reusable.
* **A degradation ledger** recording ops fast/slow/timed-out, link
  uptime, reconnects and retransmits — the structured evidence of
  graceful degradation when a fault plan goes beyond ``t``.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.accountability.statements import TranscriptLog
from repro.crypto.signatures import SignatureAuthority
from repro.errors import ProtocolError, SimulationError
from repro.net.chaos import BackoffPolicy, ChaosInjector, DegradationLedger
from repro.net.codec import (
    BINARY_SERIALIZER,
    Codec,
    preamble_serializer,
    require_binary,
)
from repro.net.runtime import AsyncRuntime, FrameLink
from repro.sim.ids import ProcessId
from repro.sim.process import Process
from repro.sim.rng import derive_seed
from repro.spec.histories import Operation

#: How long ``connect`` waits for the servers' preamble acks.  A peer
#: that never acks (a pre-preamble build) is tolerated after it; a peer
#: that acks another body format raises.
PREAMBLE_TIMEOUT = 2.0


class PoolConnection(FrameLink):
    """One outbound connection to one server."""

    def __init__(self, pool: "ClientPool", server_pid: ProcessId) -> None:
        super().__init__(pool)
        self.server_pid = server_pid
        self.lost = asyncio.get_running_loop().create_future()
        # Resolves to the server's announced body format (its preamble
        # ack); legacy peers never resolve it and are tolerated.
        self.preamble: asyncio.Future = asyncio.get_running_loop().create_future()

    def frame_received(self, body: bytes) -> None:
        self.owner.handle_frame(body, self.server_pid, self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        if not self.lost.done():
            self.lost.set_result(exc)
        self.owner.connection_down(self.server_pid, self)


class ClientPool:
    """Many client automata, one event loop, ``S`` server connections.

    Args:
        server_addrs: map of server pid to ``(host, port)``.
        seed: runtime rng seed (also seeds reconnect jitter).
        origin: shared monotonic origin for cross-process timestamps.
        serializer: body format; only ``"binary"`` exists, and any
            other name raises :class:`~repro.errors.ProtocolError`.
        chaos: optional :class:`ChaosInjector` applied to every frame in
            both directions (send and deliver).
        ledger: degradation ledger to record into (a fresh one is
            created when omitted; always available as ``pool.ledger``).
        retry_interval: cadence of in-flight frame retransmission while
            an awaited operation is pending (``0`` disables it).
        reconnect: whether lost/unreachable server links are retried.
        backoff: reconnect backoff policy.
        collect_statements: retain the signed accountability statements
            attached to incoming reply frames (servers started with
            ``accountable=True``) in ``pool.transcript``, verifying each
            against the shared signing domain; forged or garbled
            statements are counted as rejected, never retained.
        statement_seed: the *cluster* seed the servers sign under (the
            pool's own ``seed`` is a derived per-shard stream, so it
            cannot double as the signing domain).
    """

    def __init__(
        self,
        server_addrs: Dict[ProcessId, Tuple[str, int]],
        seed: int = 0,
        origin: Optional[float] = None,
        serializer: str = BINARY_SERIALIZER,
        chaos: Optional[ChaosInjector] = None,
        ledger: Optional[DegradationLedger] = None,
        retry_interval: float = 0.5,
        reconnect: bool = True,
        backoff: Optional[BackoffPolicy] = None,
        collect_statements: bool = False,
        statement_seed: int = 0,
    ) -> None:
        self.server_addrs = dict(server_addrs)
        require_binary(serializer)
        self.codec = Codec()
        self.runtime = AsyncRuntime(seed=seed, origin=origin)
        self.runtime.on_response(self._resolve)
        self.chaos = chaos
        self.ledger = DegradationLedger() if ledger is None else ledger
        self.retry_interval = retry_interval
        self.reconnect_enabled = reconnect
        self.backoff = BackoffPolicy() if backoff is None else backoff
        self._backoff_rng = random.Random(derive_seed(seed, "reconnect-jitter"))
        self.transcript = None
        self._stmt_authority = None
        if collect_statements:
            self._stmt_authority = SignatureAuthority(statement_seed)
            self.transcript = TranscriptLog(authority_seed=statement_seed)
        self.preamble_mismatches = 0
        self.frames_bad = 0
        self._mismatch: Optional[Tuple[Optional[ProcessId], str]] = None
        self._conns: Dict[ProcessId, PoolConnection] = {}
        self._waiters: Dict[ProcessId, asyncio.Future] = {}
        self._reconnect_tasks: Dict[ProcessId, asyncio.Task] = {}
        self._closed = False
        # Encoded frames of each awaited in-flight operation, for
        # retransmission: op_id -> [(dst, frame), ...].
        self._inflight: Dict[int, List[Tuple[ProcessId, bytes]]] = {}
        self._recording: Optional[List[Tuple[ProcessId, bytes]]] = None

    # ------------------------------------------------------------------
    # lifecycle

    def add_clients(self, automata: Iterable[Process]) -> None:
        """Install client automata (readers/writers) into the runtime."""
        self.runtime.add_processes(automata)

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        self.ledger.start(
            time.monotonic(),
            tuple(pid.index for pid in self.server_addrs),
        )
        if self.chaos is not None:
            self.chaos.start()
        unreachable: List[ProcessId] = []
        for pid, (host, port) in self.server_addrs.items():
            try:
                _, conn = await loop.create_connection(
                    lambda pid=pid: PoolConnection(self, pid), host, port
                )
            except OSError:
                # Crash model: an unreachable server sends/receives
                # nothing for now — but unlike a crashed one it may come
                # back, so keep knocking with backoff.
                self.ledger.connect_failures += 1
                unreachable.append(pid)
                continue
            self._install(pid, conn)
        if not self._conns:
            raise SimulationError(
                "could not reach any server: "
                + ", ".join(
                    f"{pid}@{host}:{port}"
                    for pid, (host, port) in self.server_addrs.items()
                )
            )
        for pid in unreachable:
            self._spawn_reconnect(pid)
        await self._negotiate()

    async def _negotiate(self) -> None:
        """Await the servers' preamble acks, failing loudly on mismatch.

        A peer that never acks (a pre-preamble build) is tolerated after
        :data:`PREAMBLE_TIMEOUT` — it can only work if it happens to
        speak ``binary``, which is exactly the old contract.  A peer that
        acks another body format is a configuration error and raises
        instead of surfacing as a silent decode storm.
        """
        futures = [
            conn.preamble for conn in self._conns.values() if not conn.preamble.done()
        ]
        if futures:
            await asyncio.wait(futures, timeout=PREAMBLE_TIMEOUT)
        self._check_mismatch()

    def _check_mismatch(self) -> None:
        if self._mismatch is not None:
            pid, name = self._mismatch
            raise ProtocolError(
                f"serializer mismatch: server {pid} speaks {name!r}, "
                f"this pool speaks {BINARY_SERIALIZER!r}"
            )

    async def close(self) -> None:
        self._closed = True
        tasks = list(self._reconnect_tasks.values())
        self._reconnect_tasks.clear()
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        self.ledger.finalize(time.monotonic())

    # ------------------------------------------------------------------
    # frame plumbing

    def _install(self, pid: ProcessId, conn: PoolConnection) -> None:
        self._conns[pid] = conn
        self.runtime.set_route(pid, self._route_for(conn))
        self.ledger.link_up(pid.index, time.monotonic())

    def _route_for(self, conn: PoolConnection):
        codec = self.codec
        pool = self

        def route(src: ProcessId, dst: ProcessId, payload: Any) -> None:
            frame = codec.encode_frame(src, dst, payload)
            op_id = getattr(payload, "op_id", None)
            if op_id is not None:
                bucket = pool._inflight.get(op_id)
                if bucket is None:
                    bucket = pool._recording
                if bucket is not None:
                    bucket.append((dst, frame))
            pool._send(conn, dst, frame)

        return route

    def _send(self, conn: PoolConnection, dst: ProcessId, frame: bytes) -> None:
        if self.chaos is not None:
            self.chaos.apply(dst.index, "send", lambda: self._deliver_out(dst, frame))
        else:
            conn.send_frame(frame)

    def _deliver_out(self, dst: ProcessId, frame: bytes) -> None:
        # Resolved at fire time: a delayed frame goes to the server's
        # *current* connection (or nowhere, if its link is down meanwhile).
        conn = self._conns.get(dst)
        if conn is not None:
            conn.send_frame(frame)

    def flush_batch(self) -> None:  # traced as ledger row net.client:flush_batch
        """No-op: frames write through."""

    def handle_frame(
        self,
        body: bytes,
        server_pid: Optional[ProcessId] = None,
        conn: Optional[PoolConnection] = None,
    ) -> None:
        name = preamble_serializer(body)
        if name is not None:
            self._preamble_received(server_pid, name, conn)
            return
        try:
            src, dst, payload, statement = self.codec.decode_body_full(body)
        except ProtocolError:
            self.frames_bad += 1
            return  # garbage from a server: drop, keep the connection
        if statement is not None and self.transcript is not None:
            # Key derivation for the claimed signer (idempotent) — the
            # trusted-verifier analogue of a public-key lookup.  record
            # checks the server's HMAC over the tuple recomputed from
            # what this frame carried; anything else is counted as
            # rejected, never retained.
            self._stmt_authority.register(statement.server)
            self.transcript.record(statement, self._stmt_authority)
        if server_pid is not None and src != server_pid:
            # A reply speaks for the server at the other end of its link:
            # one connection answering as several servers fills no quorum.
            self.frames_bad += 1
            return
        if self.chaos is not None and server_pid is not None:
            self.chaos.apply(
                server_pid.index,
                "recv",
                lambda: self.runtime.deliver(src, dst, payload),
            )
        else:
            self.runtime.deliver(src, dst, payload)

    def _preamble_received(
        self,
        server_pid: Optional[ProcessId],
        name: str,
        conn: Optional[PoolConnection],
    ) -> None:
        if conn is not None and not conn.preamble.done():
            conn.preamble.set_result(name)
        if name != BINARY_SERIALIZER:
            self.preamble_mismatches += 1
            self._mismatch = (server_pid, name)
            if conn is not None:
                conn.close()

    def connection_down(
        self, server_pid: ProcessId, conn: Optional[PoolConnection] = None
    ) -> None:
        """A server link died: sends to it drop until a reconnect wins."""
        current = self._conns.get(server_pid)
        if conn is not None and current is not None and current is not conn:
            return  # a superseded connection's late death; the live one stays
        if current is not None:
            self._conns.pop(server_pid, None)
            if not self._closed:
                self.ledger.link_down(server_pid.index, time.monotonic())
        self.runtime.clear_route(server_pid)
        if self.reconnect_enabled and not self._closed:
            self._spawn_reconnect(server_pid)

    def _spawn_reconnect(self, pid: ProcessId) -> None:
        existing = self._reconnect_tasks.get(pid)
        if existing is not None and not existing.done():
            return
        self._reconnect_tasks[pid] = asyncio.get_running_loop().create_task(
            self._reconnect(pid)
        )

    async def _reconnect(self, pid: ProcessId) -> None:
        host, port = self.server_addrs[pid]
        loop = asyncio.get_running_loop()
        attempt = 0
        while not self._closed:
            await asyncio.sleep(self.backoff.delay(attempt, self._backoff_rng))
            attempt += 1
            if self._closed:
                return
            try:
                _, conn = await loop.create_connection(
                    lambda: PoolConnection(self, pid), host, port
                )
            except OSError:
                self.ledger.connect_failures += 1
                continue
            self._install(pid, conn)
            self.ledger.reconnects += 1
            return

    @property
    def live_servers(self) -> int:
        return len(self._conns)

    # ------------------------------------------------------------------
    # operations

    def _resolve(self, op: Operation) -> None:
        self._inflight.pop(op.op_id, None)
        waiter = self._waiters.get(op.proc)
        if waiter is not None and not waiter.done():
            waiter.set_result(op)

    def _retransmit(self, op_id: int) -> None:
        """Re-send an in-flight op's recorded frames to live servers.

        Bypasses the runtime's ``emit`` on purpose: a retransmission is
        transport-level repair, not a new communication phase.
        """
        frames = self._inflight.get(op_id)
        if not frames:
            return
        sent = 0
        for dst, frame in list(frames):
            conn = self._conns.get(dst)
            if conn is not None:
                self._send(conn, dst, frame)
                sent += 1
        if sent:
            self.ledger.retransmits += 1

    async def run_op(
        self,
        pid: ProcessId,
        kind: str,
        value: Any = None,
        timeout: Optional[float] = None,
    ) -> Operation:
        """Invoke one operation on client ``pid`` and await its response.

        The operation completes when enough servers replied for the
        automaton to decide — the ``S - t`` quorum logic is the
        automaton's own, identical to the simulated runs.  While the
        operation is pending its frames are retransmitted every
        ``retry_interval`` seconds (lossy links).  On timeout the
        operation is abandoned (kept in the history as incomplete), the
        waiter is cleaned up, and ``pid`` is immediately reusable.
        """
        if pid in self._waiters:
            raise SimulationError(f"{pid} already has an operation in flight")
        waiter = asyncio.get_running_loop().create_future()
        self._waiters[pid] = waiter
        op: Optional[Operation] = None
        started = time.monotonic()
        try:
            self._recording = []
            try:
                op = self.runtime.invoke(pid, kind, value)
                self._inflight[op.op_id] = self._recording
            finally:
                self._recording = None
            result = await self._await_response(waiter, op.op_id, timeout)
            self.ledger.op_completed(time.monotonic() - started)
            return result
        except asyncio.TimeoutError:
            if op is not None:
                self.runtime.abandon(pid)
                self.ledger.op_timed_out()
            raise
        except asyncio.CancelledError:
            if op is not None:
                self.runtime.abandon(pid)
            raise
        finally:
            if op is not None:
                self._inflight.pop(op.op_id, None)
            leaked = self._waiters.pop(pid, None)
            if leaked is not None and not leaked.done():
                leaked.cancel()

    async def _await_response(
        self, waiter: asyncio.Future, op_id: int, timeout: Optional[float]
    ) -> Operation:
        """Await ``waiter`` while one timer handle retransmits the op each
        ``retry_interval`` and fails the waiter at the deadline."""
        interval = self.retry_interval
        if timeout is None and not interval:
            return await waiter
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        timer: asyncio.TimerHandle

        def arm() -> None:
            nonlocal timer
            due = loop.time() + interval if interval else deadline
            if deadline is not None and deadline <= due:
                timer = loop.call_at(deadline, expire)
            else:
                timer = loop.call_at(due, retransmit)

        def retransmit() -> None:
            # The waiter may have resolved earlier in this loop pass.
            if not waiter.done():
                arm()  # first: the deadline survives a failing send
                self._retransmit(op_id)

        def expire() -> None:
            if not waiter.done():
                waiter.set_exception(asyncio.TimeoutError())

        arm()
        try:
            return await waiter
        finally:
            timer.cancel()
