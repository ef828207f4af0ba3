"""A reply speaks for the server at the other end of its connection.

A frame names its sender, but the pool knows which server each of its
links reaches.  A link whose frames claim another server is lying: the
pool drops those frames and counts them in ``frames_bad``, so one
server cannot fill a quorum by answering as several.
"""

import asyncio

from repro.net.client import ClientPool
from repro.net.codec import PREAMBLE, Codec, FrameBuffer
from repro.net.server import build_net_cluster, start_servers
from repro.registers.base import ClusterConfig
from repro.registers.messages import FastRead, FastReadAck
from repro.registers.timestamps import ValueTag
from repro.sim.ids import reader, server


def test_one_link_answering_as_four_servers_forges_no_read():
    """fast-crash, S=5 t=1 R=1: the fifth link answers each ``FastRead``
    four times, as s1..s4, with a tag no writer wrote and ``seen = {r1}``.
    The four honest servers answer 20 ms late, so were those forged acks
    delivered they would fill the reader's S - t quorum first, and the
    read would return ``"forged"``."""
    config = ClusterConfig(S=5, t=1, R=1)

    async def liar(stream, writer_):
        codec, buffer = Codec(), FrameBuffer()
        writer_.write(PREAMBLE)
        while data := await stream.read(4096):
            for body in buffer.feed(data):
                if bytes(body) == PREAMBLE[4:]:
                    continue
                src, _, request = codec.decode_body(body)
                if not isinstance(request, FastRead):
                    continue
                ack = FastReadAck(
                    op_id=request.op_id, tag=ValueTag(99, "forged"),
                    seen=frozenset({reader(1)}), r_counter=request.r_counter,
                )
                for index in range(1, 5):
                    writer_.write(codec.encode_frame(server(index), src, ack))
        writer_.close()

    async def main():
        listener = await asyncio.start_server(liar, "127.0.0.1", 0)
        servers = await start_servers("fast-crash", config, seed=3, enforce=False)
        loop = asyncio.get_running_loop()
        addresses = {}
        for srv in servers[:4]:
            addresses[srv.pid] = srv.address
            handle = srv.handle_frame
            srv.handle_frame = lambda conn, body, handle=handle: loop.call_later(
                0.02, handle, conn, bytes(body)
            )
        addresses[server(5)] = listener.sockets[0].getsockname()[:2]
        pool = ClientPool(addresses, seed=1, retry_interval=0, reconnect=False)
        cluster = build_net_cluster("fast-crash", config, seed=3, enforce=False)
        pool.add_clients([*cluster.readers, *cluster.writers])
        try:
            await pool.connect()
            await pool.run_op(config.writer_ids[0], "write", "v1", timeout=3.0)
            for reads in range(1, 4):
                op = await pool.run_op(reader(1), "read", timeout=3.0)
                assert op.result == "v1"
                assert pool.frames_bad == 4 * reads
            assert pool.live_servers == config.S
        finally:
            await pool.close()
            for srv in servers:
                await srv.stop()
            listener.close()
            await listener.wait_closed()

    asyncio.run(main())
