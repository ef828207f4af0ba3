"""Property tests for the message wire format and the frame codec.

The contract under test is round-trip identity: for every message the
registry knows, ``from_wire(to_wire(m)) == m`` — and the same through a
full codec frame fed to a :class:`FrameBuffer` in arbitrary chunks.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.signatures import SignedPayload
from repro.errors import ProtocolError
from repro.net.codec import (
    HEADER,
    MAX_FRAME,
    Codec,
    FrameBuffer,
    available_serializers,
    encode_preamble,
)
from repro.net.runtime import FrameLink
from repro.registers.messages import (
    MESSAGE_TYPES,
    WIRE_VERSION,
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
    decode_message,
)
from repro.registers.timestamps import MWTimestamp, SignedValueTag, ValueTag
from repro.sim.ids import reader, server, writer

# ----------------------------------------------------------------------
# strategies over the closed set of message-field types

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
mw_timestamps = st.builds(
    MWTimestamp, num=st.integers(0, 1000), wid=st.integers(1, 8)
)
timestamps = st.one_of(st.integers(0, 10_000), mw_timestamps)
value_tags = st.builds(
    ValueTag, ts=timestamps, value=scalars, prev_value=scalars
)
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
    st.builds(
        FastReadAck, op_id=op_ids, tag=tags, seen=seen_sets, r_counter=counters
    ),
    st.builds(
        FastWriteAck, op_id=op_ids, tag=tags, seen=seen_sets, r_counter=counters
    ),
    st.builds(Query, op_id=op_ids),
    st.builds(QueryReply, op_id=op_ids, tag=tags),
    st.builds(Store, op_id=op_ids, tag=tags),
    st.builds(StoreAck, op_id=op_ids, ts=timestamps),
    st.builds(MaxMinRead, op_id=op_ids, r_counter=counters),
    st.builds(
        MaxMinGossip, op_id=op_ids, reader=pids, r_counter=counters, tag=tags
    ),
    st.builds(MaxMinReadAck, op_id=op_ids, tag=tags, r_counter=counters),
)


class TestWireRoundTrip:
    @given(message=messages)
    @settings(max_examples=300, deadline=None)
    def test_to_wire_from_wire_identity(self, message):
        wire = message.to_wire()
        assert wire["v"] == WIRE_VERSION
        assert wire["t"] == type(message).__name__
        rebuilt = decode_message(wire)
        assert type(rebuilt) is type(message)
        assert rebuilt == message

    @given(message=messages)
    @settings(max_examples=200, deadline=None)
    def test_wire_dict_is_json_clean(self, message):
        # The dict must survive a strict JSON round-trip untouched: the
        # socket layer serializes exactly this.
        wire = message.to_wire()
        assert json.loads(json.dumps(wire)) == wire

    @pytest.mark.parametrize("name", sorted(MESSAGE_TYPES))
    def test_every_registered_type_round_trips(self, name):
        # Deterministic coverage guarantee on top of the random sweep.
        tag = ValueTag(ts=3, value="v", prev_value=None)
        samples = {
            "FastRead": FastRead(op_id=1, tag=tag, r_counter=2),
            "FastWrite": FastWrite(op_id=2, tag=tag),
            "FastReadAck": FastReadAck(
                op_id=3, tag=tag, seen=frozenset({reader(1), writer(1)}),
                r_counter=1,
            ),
            "FastWriteAck": FastWriteAck(
                op_id=4, tag=tag, seen=frozenset(), r_counter=0
            ),
            "Query": Query(op_id=5),
            "QueryReply": QueryReply(op_id=6, tag=tag),
            "Store": Store(op_id=7, tag=tag),
            "StoreAck": StoreAck(op_id=8, ts=MWTimestamp(num=4, wid=2)),
            "MaxMinRead": MaxMinRead(op_id=9, r_counter=3),
            "MaxMinGossip": MaxMinGossip(
                op_id=10, reader=reader(2), r_counter=1, tag=tag
            ),
            "MaxMinReadAck": MaxMinReadAck(op_id=11, tag=tag, r_counter=1),
        }
        assert set(samples) == set(MESSAGE_TYPES)
        message = samples[name]
        assert decode_message(message.to_wire()) == message

    def test_version_mismatch_rejected(self):
        wire = Query(op_id=1).to_wire()
        wire["v"] = WIRE_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            Query.from_wire(wire)

    def test_unknown_type_rejected(self):
        with pytest.raises(ProtocolError, match="unknown wire message"):
            decode_message({"v": WIRE_VERSION, "t": "Paxos", "f": {}})

    def test_cross_type_from_wire_rejected(self):
        with pytest.raises(ProtocolError, match="decode_message"):
            Store.from_wire(Query(op_id=1).to_wire())


class TestCodecFrames:
    @pytest.mark.parametrize("serializer", available_serializers())
    @given(message=messages, src=pids, dst=pids, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_frame_round_trip_chunked(self, serializer, message, src, dst, data):
        codec = Codec(serializer)
        frame = codec.encode_frame(src, dst, message)
        buffer = FrameBuffer()
        bodies = []
        position = 0
        while position < len(frame):
            step = data.draw(
                st.integers(1, len(frame) - position), label="chunk"
            )
            bodies.extend(buffer.feed(frame[position : position + step]))
            position += step
        assert len(bodies) == 1
        assert buffer.pending_bytes == 0
        got_src, got_dst, payload = codec.decode_body(bodies[0])
        assert (got_src, got_dst, payload) == (src, dst, message)

    def test_many_frames_one_feed(self):
        codec = Codec("json")
        stream = b"".join(
            codec.encode_frame(reader(1), server(i), Query(op_id=i))
            for i in range(1, 6)
        )
        bodies = FrameBuffer().feed(stream)
        assert [codec.decode_body(b)[2].op_id for b in bodies] == [1, 2, 3, 4, 5]

    def test_oversized_frame_rejected(self):
        buffer = FrameBuffer()
        with pytest.raises(ProtocolError, match="MAX_FRAME"):
            buffer.feed(HEADER.pack(MAX_FRAME + 1))

    def test_garbage_body_rejected(self):
        codec = Codec("json")
        with pytest.raises(ProtocolError, match="undecodable"):
            codec.decode_body(b"not json at all")

    def test_unknown_serializer_rejected(self):
        with pytest.raises(ProtocolError, match="unknown serializer"):
            Codec("pickle")


class _Transport:
    """Records what a link hands to its socket."""

    def __init__(self):
        self.calls = []
        self.closed = False

    def write(self, data):
        self.calls.append(("write", data))

    def writelines(self, frames):
        self.calls.append(("writelines", list(frames)))

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


class _Owner:
    """What a link uses of its pool or server."""

    def __init__(self):
        self.codec = Codec("binary")
        self.links = []

    def begin_batch(self):
        for link in self.links:
            link.begin_batch()

    def flush_batch(self):
        for link in self.links:
            link.flush()


class _EchoLink(FrameLink):
    """Sends every frame body it receives back, framed again."""

    def frame_received(self, body):
        self.send_frame(HEADER.pack(len(body)) + bytes(body))


class TestFrameLink:
    def test_preamble_batching_and_desync(self):
        owner = _Owner()
        for _ in range(2):
            link = _EchoLink(owner)
            link.connection_made(_Transport())
            owner.links.append(link)
        one, other = owner.links
        preamble = ("write", encode_preamble("binary"))
        assert one.transport.calls == [preamble]
        assert other.transport.calls == [preamble]

        # Three frames in one read answer in one writelines, after it.
        frames = [
            owner.codec.encode_frame(reader(1), server(1), Query(op_id=i))
            for i in (1, 2, 3)
        ]
        one.data_received(b"".join(frames))
        assert one.transport.calls[1:] == [("writelines", frames)]

        # A MAX_FRAME header is a desync: it closes that link only.
        one.data_received(HEADER.pack(MAX_FRAME + 1))
        assert one.transport.closed and not other.transport.closed
        assert one.transport.calls[1:] == [("writelines", frames)]
        other.data_received(frames[0])
        assert other.transport.calls[1:] == [("write", frames[0])]
