"""Hostile frames are refused at decode, before any automaton runs.

A tag slot admits only tags and a timestamp slot only timestamps, so a
frame carrying anything else is a :class:`ProtocolError` at its tag
byte, however large the value behind it.  Over sockets, a server that
answers with such a frame loses that frame only: the pool keeps every
link, and the read completes through the honest servers.
"""

import asyncio
import time

import pytest

from repro.errors import ProtocolError
from repro.net.client import ClientPool
from repro.net.codec import PREAMBLE, Codec, FrameBuffer
from repro.net.server import NetServer, build_net_cluster, start_servers
from repro.registers.base import ClusterConfig
from repro.crypto.signatures import SignedPayload
from repro.registers.messages import FastRead, FastReadAck, FastWrite, StoreAck
from repro.registers.timestamps import INITIAL_TAG, SignedValueTag, ValueTag
from repro.sim.ids import reader, server, writer
from repro.spec.histories import BOTTOM


def _body(message, src=reader(1), dst=server(1)):
    return FrameBuffer().feed(Codec().encode_frame(src, dst, message))[0]


class TestRefusedAtDecode:
    def test_a_megabyte_list_tag_is_refused_at_its_tag_byte(self):
        body = _body(FastRead(op_id=1, tag=list(range(400_000)), r_counter=1))
        assert len(body) > 1_500_000
        started = time.perf_counter()
        with pytest.raises(ProtocolError, match=r"\[FastRead\], offset 7 .*value tag 0x0e"):
            Codec().decode_body(body)
        assert time.perf_counter() - started < 0.005

    @pytest.mark.parametrize(
        "message, declared",
        [
            (FastRead(op_id=1, tag="x", r_counter=1), "Union\\[ValueTag, SignedValueTag\\]"),
            (FastRead(op_id=1, tag=7, r_counter=1), "Union\\[ValueTag, SignedValueTag\\]"),
            (StoreAck(op_id=1, ts="x"), "Union\\[int, MWTimestamp\\]"),
        ],
    )
    def test_a_value_in_a_typed_slot_is_refused(self, message, declared):
        with pytest.raises(ProtocolError, match=f"in a slot declared {declared}"):
            Codec().decode_body(_body(message))


@pytest.mark.parametrize("kind", [FastRead, FastWrite, FastReadAck])
def test_a_signed_tag_over_a_tag_value_is_rejected_not_raised(kind):
    """A signed tag is well-typed whatever its value, and a tag value
    cannot be canonicalised for signing.  Verifying it, with its payload
    matching and claimed by the writer, is a rejection at every
    automaton, not a ``SignatureError`` inside ``data_received``."""
    from test_codec_fuzz import check_boundary

    value = ValueTag(1, "v")
    hostile = SignedValueTag(
        ts=1,
        value=value,
        signed=SignedPayload(signer=writer(1), payload=(1, value, BOTTOM), tag=bytes(32)),
    )
    fields = {"op_id": 1, "tag": hostile}
    if kind is FastReadAck:
        fields["seen"] = frozenset()
    if kind is not FastWrite:
        fields["r_counter"] = 1
    src = writer(1) if kind is FastWrite else reader(1)
    check_boundary(_body(kind(**fields), src=src))


class _FakeTransport:
    def write(self, data):
        pass

    def is_closing(self):
        return False

    def close(self):
        pass


def test_server_refuses_a_request_a_server_claims_to_send():
    """Servers never dial servers: a request naming one as its sender
    is counted bad, not handed to an automaton that has no client index
    for it."""
    from repro.net.server import ServerConnection

    srv = NetServer("fast-crash", ClusterConfig(S=4, t=1, R=1), 1, enforce=False)
    conn = ServerConnection(srv)
    conn.connection_made(_FakeTransport())
    srv.handle_frame(conn, _body(FastRead(op_id=1, tag=INITIAL_TAG, r_counter=1), src=server(2)))
    assert (srv.frames_in, srv.frames_bad) == (0, 1)
    srv.handle_frame(conn, _body(FastRead(op_id=1, tag=INITIAL_TAG, r_counter=1)))
    assert (srv.frames_in, srv.frames_bad) == (1, 1)


def test_a_server_answering_with_a_str_tag_costs_no_link():
    """One of five fast-crash servers answers every read with
    ``FastReadAck(tag="x")``.  Were it decoded, it would join the
    reader's ack set, and the honest ack completing the quorum would
    raise inside that honest link's ``data_received``: the link closes
    and the read times out."""
    config = ClusterConfig(S=5, t=1, R=1)

    async def liar(stream, writer_):
        codec, buffer = Codec(), FrameBuffer()
        writer_.write(PREAMBLE)
        while data := await stream.read(4096):
            for body in buffer.feed(data):
                if bytes(body) == PREAMBLE[4:]:
                    continue
                src, _, request = codec.decode_body(body)
                ack = FastReadAck(
                    op_id=request.op_id, tag="x", seen=frozenset(), r_counter=request.r_counter
                )
                writer_.write(codec.encode_frame(server(1), src, ack))
        writer_.close()

    async def main():
        listener = await asyncio.start_server(liar, "127.0.0.1", 0)
        servers = await start_servers("fast-crash", config, seed=3, enforce=False)
        addresses = {server(1): listener.sockets[0].getsockname()[:2]}
        loop = asyncio.get_running_loop()
        for srv in servers[1:]:
            addresses[srv.pid] = srv.address
            # The honest servers answer 20 ms late, so the liar's ack is
            # always in the reader's ack set before the quorum fills.
            handle = srv.handle_frame
            srv.handle_frame = lambda conn, body, handle=handle: loop.call_later(
                0.02, handle, conn, bytes(body)
            )
        pool = ClientPool(addresses, seed=1, retry_interval=0, reconnect=False)
        cluster = build_net_cluster("fast-crash", config, seed=3, enforce=False)
        pool.add_clients([*cluster.readers, *cluster.writers])
        try:
            await pool.connect()
            for _ in range(3):
                op = await pool.run_op(reader(1), "read", timeout=3.0)
                assert op.result == BOTTOM
            assert pool.live_servers == config.S
        finally:
            await pool.close()
            for srv in servers:
                await srv.stop()
            listener.close()
            await listener.wait_closed()

    asyncio.run(main())
