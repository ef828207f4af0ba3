"""Register server over a TCP socket.

One :class:`NetServer` hosts exactly one server automaton (``s<i>`` of a
cluster) behind one listening socket.  The automaton is the *same class*
that runs in the simulator — :class:`~repro.registers.base.StorageServer`
or a protocol-specific server — installed into an
:class:`~repro.net.runtime.AsyncRuntime` whose routes point back out of
the client connections.

Connection handling is :class:`~repro.net.runtime.FrameLink`, a plain
:class:`asyncio.Protocol` (no streams) shared with the client side:
``data_received`` feeds a :class:`~repro.net.codec.FrameBuffer`, each
complete frame is decoded and dispatched to the automaton, and replies
the automaton emits to a client pid are framed onto whichever connection
last spoke for that pid.  A connection that sends garbage is closed; the
automaton and other connections are unaffected.

The max-min protocol needs server-to-server gossip links, which this v1
topology (clients dial servers; servers never dial) does not provide;
:func:`build_net_server` rejects it up front.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Set, Tuple

from repro import accountability
from repro.crypto.signatures import SignatureAuthority
from repro.errors import ConfigurationError, ProtocolError
from repro.net.chaos import ChaosInjector, FaultPlan
from repro.net.codec import Codec, get_codec, preamble_serializer
from repro.net.runtime import AsyncRuntime, FrameLink
from repro.registers.base import Cluster, ClusterConfig
from repro.registers.messages import SERVER_REPLIES
from repro.registers.registry import get_protocol
from repro.sim.ids import ProcessId

def build_net_cluster(
    protocol: str,
    config: ClusterConfig,
    seed: int = 0,
    enforce: bool = True,
) -> Cluster:
    """Build a protocol cluster for networked deployment.

    ``seed`` matters only for signature-bearing protocols: every party
    derives the same :class:`~repro.crypto.signatures.SignatureAuthority`
    from it, so signatures made in one OS process verify in another.
    A protocol whose servers message other servers (the spec's
    ``gossip`` fact) is unreachable over net v1's topology.
    """
    spec = get_protocol(protocol)
    if spec.gossip:
        raise ConfigurationError(
            f"protocol {protocol!r} needs server-to-server links, which the "
            "networked topology (clients dial servers) does not provide"
        )
    return spec.build(config, enforce=enforce, seed=seed)


class ServerConnection(FrameLink):
    """One accepted client connection: frames in, frames out."""

    def __init__(self, server: "NetServer") -> None:
        super().__init__(server)
        #: Client pids whose replies route over this connection.
        self.claimed: Set[ProcessId] = set()

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self.owner.connections.add(self)

    def frame_received(self, body: bytes) -> None:
        self.owner.handle_frame(self, body)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner.forget_connection(self)


class NetServer:
    """One register-server automaton behind one listening TCP socket.

    Args:
        protocol: registry name of the protocol to serve.
        config: cluster parameters — must match what clients use.
        index: which server (1-based, ``s<index>``) this instance is.
        host/port: bind address (``port=0`` picks a free port; see
            :attr:`port` after :meth:`start`).
        seed: shared cluster seed (signature authority derivation).
        serializer: wire serializer name (both sides must agree).
        enforce: set ``False`` to skip the protocol feasibility check —
            the load harness runs far more readers than the fast
            protocols' thresholds allow.
        chaos: optional :class:`~repro.net.chaos.ChaosInjector` applied
            to this server's own link (inbound ``recv`` before dispatch,
            outbound ``send`` before the socket write).  Server-side
            injection mirrors the client-side interceptor for
            single-process deployments and tests; spawned clusters
            normally leave chaos to the clients so the recorded
            decision streams all live in collectable shard records.
        accountable: sign every reply with this server's key in the
            cluster-seed signing domain and attach the signed statement
            to the outgoing frame (see :mod:`repro.accountability`).
            Sequence numbers are assigned at send time, so collecting
            clients can audit for equivocation.
    """

    def __init__(
        self,
        protocol: str,
        config: ClusterConfig,
        index: int,
        host: str = "127.0.0.1",
        port: int = 0,
        seed: int = 0,
        serializer: Optional[str] = None,
        enforce: bool = True,
        chaos: Optional[ChaosInjector] = None,
        accountable: bool = False,
    ) -> None:
        cluster = build_net_cluster(protocol, config, seed=seed, enforce=enforce)
        self.protocol = protocol
        self.config = config
        self.automaton = cluster.server(index)
        self.pid = self.automaton.pid
        self.host = host
        self.port = port
        self.codec: Codec = get_codec(serializer)
        self.runtime = AsyncRuntime(seed=seed)
        self.runtime.add_process(self.automaton)
        self.runtime.set_default_route(self._route_out)
        self.chaos = chaos
        self.accountable = accountable
        if accountable:
            # Every party derives the same authority from the shared
            # cluster seed, so statements signed here verify in any
            # other OS process holding the seed.
            self._stmt_authority = SignatureAuthority(seed)
            self._stmt_seq = 0
            self._stmt_cause = ""
        self.connections: Set[ServerConnection] = set()
        self._client_conns: Dict[ProcessId, ServerConnection] = {}
        self._asyncio_server: Optional[asyncio.AbstractServer] = None
        self.frames_in = 0
        self.frames_bad = 0
        self.statements_signed = 0
        self.preamble_mismatches = 0

    # ------------------------------------------------------------------
    # lifecycle

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._asyncio_server = await loop.create_server(
            lambda: ServerConnection(self), self.host, self.port
        )
        self.port = self._asyncio_server.sockets[0].getsockname()[1]
        if self.chaos is not None:
            self.chaos.start()

    async def stop(self) -> None:
        if self._asyncio_server is not None:
            self._asyncio_server.close()
            await self._asyncio_server.wait_closed()
            self._asyncio_server = None
        for conn in list(self.connections):
            conn.close()

    async def serve_forever(self) -> None:
        if self._asyncio_server is None:
            await self.start()
        await self._asyncio_server.serve_forever()

    # ------------------------------------------------------------------
    # frame plumbing

    def begin_batch(self) -> None:
        """Start coalescing outbound frames on every live connection."""
        for conn in self.connections:
            conn.begin_batch()

    def flush_batch(self) -> None:
        for conn in list(self.connections):
            conn.flush()

    def handle_frame(self, conn: ServerConnection, body: bytes) -> None:
        name = preamble_serializer(body)
        if name is not None:
            if name != self.codec.serializer:
                # Loud, early, and final: the peer cannot talk to us.
                # Our own preamble (already sent) tells it why.
                self.preamble_mismatches += 1
                conn.close()
            return
        try:
            src, dst, payload = self.codec.decode_body(body)
        except ProtocolError:
            self.frames_bad += 1
            return  # drop the frame; a decode error is not a desync
        self.frames_in += 1
        if src.is_client and src not in conn.claimed:
            # Replies to this client now route over this connection.
            conn.claimed.add(src)
            self._client_conns[src] = conn
            self.runtime.set_route(src, self._route_out)
        if self.accountable:
            # Replies are emitted synchronously inside deliver, so the
            # request type being dispatched is the cause of whatever
            # statements _route_out signs during this call.
            self._stmt_cause = type(payload).__name__
        if self.chaos is not None:
            self.chaos.apply(
                self.pid.index,
                "recv",
                lambda: self.runtime.deliver(src, dst, payload),
            )
        else:
            self.runtime.deliver(src, dst, payload)

    def _route_out(self, src: ProcessId, dst: ProcessId, payload: Any) -> None:
        conn = self._client_conns.get(dst)
        if conn is None:
            return  # client vanished between request and reply
        statement = None
        if self.accountable and dst.is_client and isinstance(payload, SERVER_REPLIES):
            seq = self._stmt_seq
            self._stmt_seq += 1
            # Resolved on the package at call time: that attribute is
            # the seam tracers and tests patch.
            statement = accountability.sign_statement(
                self._stmt_authority,
                server=self.pid,
                seq=seq,
                client=dst,
                op_id=getattr(payload, "op_id", None),
                cause_kind=self._stmt_cause,
                reply=payload,
            )
            self.statements_signed += 1
        frame = self.codec.encode_frame(src, dst, payload, statement=statement)
        if self.chaos is not None:
            self.chaos.apply(
                self.pid.index, "send", lambda: self._deliver_out(dst, frame)
            )
        else:
            conn.send_frame(frame)

    def _deliver_out(self, dst: ProcessId, frame: bytes) -> None:
        # Resolved at fire time: a delayed reply goes to the client's
        # *current* connection (or nowhere, if it vanished meanwhile).
        conn = self._client_conns.get(dst)
        if conn is not None:
            conn.send_frame(frame)

    def forget_connection(self, conn: ServerConnection) -> None:
        self.connections.discard(conn)
        for pid in conn.claimed:
            if self._client_conns.get(pid) is conn:
                del self._client_conns[pid]
                self.runtime.clear_route(pid)

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)


async def start_servers(
    protocol: str,
    config: ClusterConfig,
    base_port: int = 0,
    chaos_plan: Optional[FaultPlan] = None,
    **options,
) -> "list[NetServer]":
    """Start all ``S`` servers of one cluster in this event loop.

    With ``base_port=0`` each server binds an ephemeral port; otherwise
    server ``s<i>`` listens on ``base_port + i - 1``.  A ``chaos_plan``
    installs one server-side injector per server (shard = server index).
    ``options`` are :class:`NetServer`'s own (``host``, ``seed``,
    ``serializer``, ``enforce``, ``accountable``).
    """
    servers = []
    for index in range(1, config.S + 1):
        server = NetServer(
            protocol,
            config,
            index,
            port=base_port and base_port + index - 1,
            chaos=(
                None
                if chaos_plan is None
                else ChaosInjector(chaos_plan, side="server", shard=index)
            ),
            **options,
        )
        await server.start()
        servers.append(server)
    return servers
