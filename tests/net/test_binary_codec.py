"""The binary wire codec (``repro-bin/v2``) and the zero-copy pipeline.

Three contracts under test (the pinned bytes are test_wire_golden's):

* **Round trip** — for every registered message kind, with and without
  an accountability statement, ``decode(encode(m)) == (src, dst, m,
  stmt)``: equal messages and equal, verifying ``SignedStatement``
  objects.  The statement section ships only ``seq``/``cause``/``tag``;
  everything else is the envelope's, so a statement about another frame
  does not encode and a tampered envelope does not verify.
* **Zero-copy framing** — :class:`FrameBuffer` hands out ``memoryview``
  slices, reassembles a byte-split stream split at *every* offset
  identically, and never copies whole-frame input.
* **Loud failure** — undecodable frames raise :class:`ProtocolError`
  naming the offending kind byte and offset, and a peer announcing
  another body format is refused at connect, on both sides, instead of
  decaying into a decode storm.
"""

import asyncio

import pytest
from hypothesis import given, settings, strategies as st

from repro.accountability import SignedStatement, sign_statement, verify_statement
from repro.crypto.signatures import SignatureAuthority, SignedPayload
from repro.errors import ProtocolError
from repro.net.chaos import ChaosInjector, FaultPlan, LinkFaults, build_run_record, verify_run_record
from repro.net.codec import (
    BINARY_FORMAT,
    HEADER,
    PREAMBLE,
    PREAMBLE_MAGIC,
    Codec,
    FrameBuffer,
    preamble_serializer,
)
from repro.registers.base import ClusterConfig
from repro.registers.messages import (
    MESSAGE_TYPES,
    WIRE_KIND_BYTES,
    FastRead,
    FastReadAck,
    FastWrite,
    FastWriteAck,
    MaxMinGossip,
    MaxMinRead,
    MaxMinReadAck,
    Query,
    QueryReply,
    Store,
    StoreAck,
)
from repro.registers.timestamps import MWTimestamp, SignedValueTag, ValueTag
from repro.sim.ids import ProcessId, reader, server, writer

# ----------------------------------------------------------------------
# strategies (the closed field-type set, as in test_wire)

op_ids = st.integers(min_value=0, max_value=2**31)
counters = st.integers(min_value=0, max_value=200)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.text(max_size=20),
)
pids = st.one_of(
    st.builds(reader, st.integers(1, 40)),
    st.builds(writer, st.integers(1, 4)),
    st.builds(server, st.integers(1, 40)),
)
mw_timestamps = st.builds(MWTimestamp, num=st.integers(0, 1000), wid=st.integers(1, 8))
timestamps = st.one_of(st.integers(0, 10_000), mw_timestamps)
value_tags = st.builds(ValueTag, ts=timestamps, value=scalars, prev_value=scalars)
signed_payloads = st.builds(
    SignedPayload,
    signer=pids,
    payload=st.tuples(st.integers(0, 1000), scalars, scalars),
    tag=st.binary(min_size=8, max_size=32),
)
signed_tags = st.builds(
    SignedValueTag,
    ts=st.integers(0, 10_000),
    value=scalars,
    prev_value=scalars,
    signed=st.one_of(st.none(), signed_payloads),
)
tags = st.one_of(value_tags, signed_tags)
seen_sets = st.frozensets(pids, max_size=6)

messages = st.one_of(
    st.builds(FastRead, op_id=op_ids, tag=tags, r_counter=counters),
    st.builds(FastWrite, op_id=op_ids, tag=tags),
    st.builds(FastReadAck, op_id=op_ids, tag=tags, seen=seen_sets, r_counter=counters),
    st.builds(FastWriteAck, op_id=op_ids, tag=tags, seen=seen_sets, r_counter=counters),
    st.builds(Query, op_id=op_ids),
    st.builds(QueryReply, op_id=op_ids, tag=tags),
    st.builds(Store, op_id=op_ids, tag=tags),
    st.builds(StoreAck, op_id=op_ids, ts=timestamps),
    st.builds(MaxMinRead, op_id=op_ids, r_counter=counters),
    st.builds(MaxMinGossip, op_id=op_ids, reader=pids, r_counter=counters, tag=tags),
    st.builds(MaxMinReadAck, op_id=op_ids, tag=tags, r_counter=counters),
)


def _sample_message(name):
    tag = ValueTag(ts=3, value="v", prev_value=None)
    samples = {
        "FastRead": FastRead(op_id=1, tag=tag, r_counter=2),
        "FastWrite": FastWrite(op_id=2, tag=tag),
        "FastReadAck": FastReadAck(
            op_id=3, tag=tag, seen=frozenset({reader(1), writer(1)}), r_counter=1
        ),
        "FastWriteAck": FastWriteAck(op_id=4, tag=tag, seen=frozenset(), r_counter=0),
        "Query": Query(op_id=5),
        "QueryReply": QueryReply(op_id=6, tag=tag),
        "Store": Store(op_id=7, tag=tag),
        "StoreAck": StoreAck(op_id=8, ts=MWTimestamp(num=4, wid=2)),
        "MaxMinRead": MaxMinRead(op_id=9, r_counter=3),
        "MaxMinGossip": MaxMinGossip(op_id=10, reader=reader(2), r_counter=1, tag=tag),
        "MaxMinReadAck": MaxMinReadAck(op_id=11, tag=tag, r_counter=1),
    }
    assert set(samples) == set(MESSAGE_TYPES)
    return samples[name]


def _sample_statement(name, seed=3, **overrides):
    """A real signed statement by ``s1`` to ``r2`` about the sample
    message — the statement a frame ``s1 -> r2`` of it would carry."""
    message = _sample_message(name)
    fields = dict(
        server=server(1),
        seq=7,
        client=reader(2),
        op_id=message.op_id,
        cause_kind="FastRead",
        reply=message,
    )
    fields.update(overrides)
    return sign_statement(SignatureAuthority(seed), **fields)


# ----------------------------------------------------------------------
# the kind-byte registry (the bytes themselves: test_wire_golden)


def test_kind_byte_registry_is_the_sorted_registry():
    assert WIRE_KIND_BYTES == {
        name: index for index, name in enumerate(sorted(MESSAGE_TYPES), start=1)
    }
    assert len(set(WIRE_KIND_BYTES.values())) == len(MESSAGE_TYPES)
    assert max(WIRE_KIND_BYTES.values()) < 0x80
    assert BINARY_FORMAT == "repro-bin/v2"


# ----------------------------------------------------------------------
# round trip


class TestRoundTrip:
    @given(message=messages, src=pids, dst=pids)
    @settings(max_examples=250, deadline=None)
    def test_decode_inverts_encode(self, message, src, dst):
        codec = Codec()
        body = FrameBuffer().feed(codec.encode_frame(src, dst, message))[0]
        assert codec.decode_body_full(body) == (src, dst, message, None)

    @pytest.mark.parametrize("name", sorted(MESSAGE_TYPES))
    @pytest.mark.parametrize("with_statement", [False, True])
    def test_every_kind_with_and_without_statement_slot(self, name, with_statement):
        message = _sample_message(name)
        statement = _sample_statement(name) if with_statement else None
        authority = SignatureAuthority(3)
        authority.register(server(1))
        codec = Codec()
        frame = codec.encode_frame(server(1), reader(2), message, statement=statement)
        got = codec.decode_body_full(FrameBuffer().feed(frame)[0])
        assert got == (server(1), reader(2), message, statement)
        if with_statement:
            # an equal object, not merely an equal dict: it verifies
            # and says what the signer signed
            assert isinstance(got[3], SignedStatement)
            assert verify_statement(authority, got[3])
            assert got[3].signature.payload == statement.signature.payload

    def test_binary_statement_section_is_seq_cause_tag(self):
        message = _sample_message("FastReadAck")
        statement = _sample_statement("FastReadAck")
        codec = Codec()
        plain = codec.encode_frame(server(1), reader(2), message)
        signed = codec.encode_frame(server(1), reader(2), message, statement=statement)
        section = bytes([7, len("FastRead")]) + b"FastRead" + bytes([32]) + statement.signature.tag
        assert signed[4:] == plain[4:5] + b"\x02" + plain[6:] + section

    @pytest.mark.parametrize(
        "field, value",
        [
            ("server", server(2)),
            ("client", reader(3)),
            ("reply", FastReadAck(op_id=3, tag=ValueTag(9, "x"), seen=frozenset(), r_counter=1)),
            ("op_id", 5),
        ],
    )
    def test_statement_about_another_frame_does_not_encode(self, field, value):
        statement = _sample_statement("FastReadAck", **{field: value})
        with pytest.raises(ProtocolError, match="does not describe the frame"):
            Codec().encode_frame(
                server(1), reader(2), _sample_message("FastReadAck"),
                statement=statement,
            )

    def test_a_tuple_twin_of_a_pid_in_a_set_stays_a_tuple(self):
        # ("reader", 1) hashes and compares equal to reader(1), so the
        # encoder's pid cache must not hand it the pid's bytes.  A seen
        # set is declared FrozenSet[ProcessId]: the twin is refused at
        # decode, at its item's tuple byte.
        codec = Codec()
        frames = {}
        for item in (ProcessId("reader", 1), ("reader", 1)):
            message = FastReadAck(
                op_id=3, tag=ValueTag(1, "v"), seen=frozenset({item}), r_counter=1
            )
            frames[type(item)] = codec.encode_frame(server(1), reader(2), message)
        assert frames[ProcessId] != frames[tuple]
        seen = codec.decode_body(FrameBuffer().feed(frames[ProcessId])[0])[2].seen
        assert seen == {reader(1)}
        assert [type(item) for item in seen] == [ProcessId]
        with pytest.raises(ProtocolError, match="value tag 0x0d in a slot declared ProcessId"):
            codec.decode_body(FrameBuffer().feed(frames[tuple])[0])

    def test_mixed_stream_in_socket_sized_reads_decodes_equal(self):
        """Every kind, a tenth of the frames statement-bearing, as one
        byte stream through one ``FrameBuffer`` in reads that straddle
        frame boundaries: the corpus comes back."""
        corpus = [
            (
                server(1),
                reader(2),
                _sample_message(name),
                _sample_statement(name) if repeat % 10 == 0 else None,
            )
            for repeat in range(40)
            for name in sorted(MESSAGE_TYPES)
        ]
        codec = Codec()
        stream = b"".join(
            codec.encode_frame(src, dst, message, statement=statement)
            for src, dst, message, statement in corpus
        )
        buffer, decoded = FrameBuffer(), []
        for start in range(0, len(stream), 1500):
            for body in buffer.feed(stream[start : start + 1500]):
                decoded.append(codec.decode_body_full(body))
        assert buffer.pending_bytes == 0
        assert decoded == corpus


# ----------------------------------------------------------------------
# zero-copy frame pipeline


class TestZeroCopyFrameBuffer:
    def _stream(self):
        codec = Codec()
        frames = [
            codec.encode_frame(reader(1), server(1), _sample_message("FastRead")),
            codec.encode_frame(
                server(1), reader(2), _sample_message("FastReadAck"),
                statement=_sample_statement("FastReadAck"),
            ),
            codec.encode_frame(writer(1), server(2), _sample_message("FastWrite")),
            codec.encode_frame(reader(3), server(1), _sample_message("Query")),
        ]
        return b"".join(frames)

    def test_bodies_are_memoryviews_into_the_fed_blob(self):
        stream = self._stream()
        bodies = FrameBuffer().feed(stream)
        assert len(bodies) == 4
        for body in bodies:
            assert isinstance(body, memoryview)
            assert body.obj is stream  # zero-copy: slices of the input

    def test_split_at_every_offset_reassembles_identically(self):
        stream = self._stream()
        expected = [bytes(b) for b in FrameBuffer().feed(stream)]
        for cut in range(1, len(stream)):
            buffer = FrameBuffer()
            got = [bytes(b) for b in buffer.feed(stream[:cut])]
            got += [bytes(b) for b in buffer.feed(stream[cut:])]
            assert got == expected, f"split at offset {cut}"
            assert buffer.pending_bytes == 0

    def test_byte_by_byte_feed(self):
        stream = self._stream()
        expected = [bytes(b) for b in FrameBuffer().feed(stream)]
        buffer = FrameBuffer()
        got = []
        for i in range(len(stream)):
            got += [bytes(b) for b in buffer.feed(stream[i : i + 1])]
        assert got == expected
        assert buffer.pending_bytes == 0

    def test_decode_accepts_memoryview(self):
        message = _sample_message("QueryReply")
        codec = Codec()
        body = FrameBuffer().feed(codec.encode_frame(server(1), reader(1), message))[0]
        assert isinstance(body, memoryview)
        assert codec.decode_body(body) == (server(1), reader(1), message)


# ----------------------------------------------------------------------
# loud failure: kind byte + offset context


class TestBinaryErrorContext:
    def test_unknown_kind_byte_named(self):
        codec = Codec()
        with pytest.raises(ProtocolError, match=r"kind byte 0x63.*offset 1"):
            codec.decode_body(b"\x63\x00garbage")

    @pytest.mark.parametrize("flags", [0x01, 0x03, 0x04, 0x82])
    def test_unknown_flag_bits_rejected_by_name(self, flags):
        # 0x01 was the v1 statement section: a mixed-build accountable
        # pairing must fail per frame, not mis-parse the section.
        codec = Codec()
        frame = codec.encode_frame(
            server(1), reader(2), _sample_message("FastReadAck"),
            statement=_sample_statement("FastReadAck"),
        )
        body = bytearray(frame[4:])
        assert body[1] == 0x02
        body[1] = flags
        with pytest.raises(
            ProtocolError, match=rf"offset 2 of \d+\): flags byte {flags:#04x}"
        ):
            codec.decode_body_full(bytes(body))

    def test_truncated_frame_names_kind_and_offset(self):
        codec = Codec()
        frame = codec.encode_frame(
            reader(1), server(1), _sample_message("FastReadAck")
        )
        body = frame[4:]
        kind_byte = WIRE_KIND_BYTES["FastReadAck"]
        with pytest.raises(
            ProtocolError,
            match=rf"kind byte {kind_byte:#04x} \[FastReadAck\], offset \d+",
        ) as excinfo:
            codec.decode_body(body[: len(body) - 3])
        assert "undecodable binary frame body" in str(excinfo.value)

    def test_trailing_junk_rejected(self):
        codec = Codec()
        body = bytes(
            FrameBuffer().feed(
                codec.encode_frame(reader(1), server(1), _sample_message("Query"))
            )[0]
        )
        with pytest.raises(ProtocolError, match="trailing bytes"):
            codec.decode_body(body + b"\x00\x00")

    def test_empty_body_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable binary frame"):
            Codec().decode_body(b"")

    def test_unregistered_payload_type_rejected(self):
        class Rogue:
            op_id = 1

        with pytest.raises(ProtocolError, match="not a registered"):
            Codec().encode_frame(reader(1), server(1), Rogue())


# ----------------------------------------------------------------------
# preamble: the cross-build check


def _json_preamble():
    """The preamble an older build speaking json bodies writes."""
    body = PREAMBLE_MAGIC + b"json"
    return HEADER.pack(len(body)) + body


class TestPreamble:
    def test_names_the_one_body_format(self):
        assert preamble_serializer(FrameBuffer().feed(PREAMBLE)[0]) == "binary"
        assert preamble_serializer(FrameBuffer().feed(_json_preamble())[0]) == "json"

    def test_ordinary_frames_are_not_preambles(self):
        body = FrameBuffer().feed(
            Codec().encode_frame(reader(1), server(1), _sample_message("Query"))
        )[0]
        assert preamble_serializer(body) is None
        # the magic's first byte alone does not make a preamble
        assert preamble_serializer(b"\xa5" + bytes(len(PREAMBLE_MAGIC))) is None

    def test_pool_refuses_a_json_server(self):
        # A raw server that announces json: the pool must raise at
        # connect; the silent alternative is every frame dropped as
        # undecodable.
        from repro.net.client import ClientPool

        async def run():
            async def json_server(reader_, writer_):
                writer_.write(_json_preamble())
                await reader_.read()  # until the pool hangs up
                writer_.close()

            listener = await asyncio.start_server(json_server, "127.0.0.1", 0)
            address = listener.sockets[0].getsockname()[:2]
            pool = ClientPool({server(1): address}, reconnect=False)
            try:
                with pytest.raises(ProtocolError, match="serializer mismatch"):
                    await pool.connect()
                assert pool.preamble_mismatches == 1
            finally:
                await pool.close()
                listener.close()
                await listener.wait_closed()

        asyncio.run(run())

    def test_server_refuses_a_json_client(self):
        # A raw client that announces json: the server answers with its
        # own preamble, counts the peer and closes the connection.
        from repro.net.server import NetServer

        async def run():
            srv = NetServer("abd", ClusterConfig(S=1, t=0, R=1), 1, enforce=False)
            await srv.start()
            try:
                reader_, writer_ = await asyncio.open_connection(*srv.address)
                writer_.write(_json_preamble())
                assert await asyncio.wait_for(reader_.read(), 5.0) == PREAMBLE
                assert srv.preamble_mismatches == 1
                assert srv.frames_in == srv.frames_bad == 0
                writer_.close()
            finally:
                await srv.stop()

        asyncio.run(run())

    def test_matching_preambles_negotiate_silently(self):
        from repro.net.client import ClientPool
        from repro.net.server import NetServer

        async def run():
            config = ClusterConfig(S=1, t=0, R=1)
            srv = NetServer("abd", config, 1, seed=0, enforce=False)
            await srv.start()
            pool = ClientPool({server(1): srv.address}, reconnect=False)
            try:
                await pool.connect()
                assert pool.preamble_mismatches == 0
                assert srv.preamble_mismatches == 0
                for conn in pool._conns.values():
                    assert conn.preamble.done()
                    assert conn.preamble.result() == "binary"
            finally:
                await pool.close()
                await srv.stop()

        asyncio.run(run())

    @pytest.mark.parametrize("owner", ["NetServer", "ClientPool", "LoadSpec"])
    def test_the_kept_serializer_parameters_accept_only_binary(self, owner):
        from repro.net import ClientPool, LoadSpec, NetServer

        build = {
            "NetServer": lambda name: NetServer(
                "abd", ClusterConfig(S=1, t=0, R=1), 1, serializer=name
            ),
            "ClientPool": lambda name: ClientPool({}, serializer=name),
            "LoadSpec": lambda name: LoadSpec(
                "abd", (("127.0.0.1", 1),), serializer=name
            ),
        }[owner]
        build("binary")
        for name in ("json", "pickle"):
            with pytest.raises(ProtocolError, match="unknown serializer"):
                build(name)


# ----------------------------------------------------------------------
# chaos never reads frame bytes


class TestChaosIgnoresFrameBytes:
    def test_decision_streams_ignore_frame_bytes(self):
        # Two injectors over the same plan draw identical decision
        # streams regardless of what bytes the frames contain — the
        # stream is keyed by (plan seed, side, shard, server, direction)
        # and advanced per frame, never fed frame content.
        plan = FaultPlan(seed=21, default=LinkFaults(drop=0.3, delay=0.3))
        a = ChaosInjector(plan, side="client", shard=0)
        b = ChaosInjector(plan, side="client", shard=0)
        a.start()
        b.start()
        for _ in range(200):
            assert a.decide(1, "send") == b.decide(1, "send")
            assert a.decide(1, "recv") == b.decide(1, "recv")
        assert a.to_dict() == b.to_dict()

    def test_run_record_verifies(self):
        from repro.net.harness import run_net_workload

        plan = FaultPlan(
            seed=12, default=LinkFaults(drop=0.1, delay=0.2, delay_max=0.005)
        )
        result = run_net_workload(
            "abd",
            ClusterConfig(S=3, t=0, R=2),
            reads_per_reader=4,
            writes_per_writer=2,
            seed=4,
            chaos_plan=plan,
        )
        assert result.check_atomic().ok
        record = build_run_record(plan, {0: result.chaos.to_dict()}, t=0)
        assert verify_run_record(record)["ok"]
