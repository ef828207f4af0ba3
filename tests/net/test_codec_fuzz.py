"""The socket boundary under hostile bytes.

Whatever arrives, :meth:`Codec.decode_body_full` and
:meth:`FrameBuffer.feed` either raise :class:`ProtocolError` or yield a
message whose every field has its declared type (the dataclass
annotations are the wire schema).  A decoded request then reaches a
fresh server automaton of every protocol, and a decoded reply a reader
of every protocol with a matching pending operation; neither may raise.
That is what lets ``NetServer.handle_frame`` deliver without a catch.
"""

import dataclasses
import typing
from typing import Any

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import ProtocolError
from repro.faults.byzantine import run_captured
from repro.net import codec as codec_module
from repro.net.codec import HEADER, Codec, FrameBuffer
from repro.registers.base import ClusterConfig
from repro.registers.messages import CLIENT_REQUESTS, SERVER_REPLIES
from repro.registers.registry import PROTOCOLS
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import ProcessId, reader, server
from repro.sim.process import Context

from test_binary_codec import messages, pids

CONFIG = ClusterConfig(S=4, t=1, R=1)
FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def conforms(value: Any, hint: Any) -> bool:
    """``value`` has the annotated type ``hint``, recursively through the
    schema dataclasses (tags, timestamps, signatures)."""
    if hint is Any:
        return True
    if hint is int:
        return type(value) is int
    if typing.get_origin(hint) is typing.Union:
        return any(conforms(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is frozenset:
        (item,) = typing.get_args(hint)
        return type(value) is frozenset and all(conforms(v, item) for v in value)
    if hint is type(None):
        return value is None
    if not isinstance(value, hint):
        return False
    if dataclasses.is_dataclass(hint):
        hints = typing.get_type_hints(hint)
        return all(
            conforms(getattr(value, field.name), hints[field.name])
            for field in dataclasses.fields(hint)
        )
    return True


def decode_or_refuse(body):
    """The decoded frame if it conforms, ``None`` if refused."""
    try:
        src, dst, payload, _ = Codec().decode_body_full(body)
    except ProtocolError:
        return None
    assert type(src) is ProcessId and type(dst) is ProcessId
    assert conforms(payload, type(payload)), payload
    return src, payload


def serve_everywhere(src, payload):
    """A request from ``src`` to a fresh ``s1`` of every protocol."""
    if not src.is_client:
        return  # NetServer refuses it (test_hostile_frames.py)
    for spec in PROTOCOLS.values():
        inner = spec.build(CONFIG, enforce=False).honest_server(1)
        run_captured(inner, payload, src, 0.0)


def answer_everywhere(payload):
    """A reply that two servers send (say, both adopted a hostile
    client's store) completes the first-phase quorum of a pending read
    at ``r1`` of every protocol, after ``S - t - 2`` honest replies."""
    quorum = CONFIG.quorum
    for spec in PROTOCOLS.values():
        execution = ScriptedExecution(record_trace=False)
        cluster = spec.build(CONFIG, enforce=False)
        cluster.install(execution)
        client = cluster.reader(1)
        op = execution.invoke(client.pid, "read")
        honest = CONFIG.server_ids[: quorum - 2]
        execution.deliver_requests(op, to=honest)
        execution.deliver_replies(op, from_=honest)
        match = {"op_id": op.op_id}
        if "r_counter" in type(payload).__dataclass_fields__:
            match["r_counter"] = getattr(client, "r_counter", payload.r_counter)
        reply = dataclasses.replace(payload, **match)
        for src in CONFIG.server_ids[quorum - 2 : quorum]:
            client.on_message(reply, src, Context(execution, client.pid, 0))


def check_boundary(body):
    decoded = decode_or_refuse(body)
    if decoded is None:
        return
    src, payload = decoded
    if isinstance(payload, CLIENT_REQUESTS):
        serve_everywhere(src, payload)
    elif isinstance(payload, SERVER_REPLIES):
        answer_everywhere(payload)


def _typed_slot_offsets(message):
    """Body offsets of the tag bytes of ``message``'s typed tagged slots
    (everything but raw ``int``/``ProcessId`` fields and ``Any``)."""
    names, slots = codec_module._schema(type(message))
    buf = bytearray(b"\x00\x00")  # kind, flags
    codec_module._w_pid(buf, reader(1))
    codec_module._w_pid(buf, server(1))
    offsets = []
    for name, (write, read) in zip(names, slots):
        if read not in (codec_module._r_int, codec_module._r_pid, codec_module._r_value):
            offsets.append(len(buf))
        write(buf, getattr(message, name))
    return offsets


@st.composite
def mutated_frames(draw):
    """A real frame, then one byte flipped, the frame truncated or
    extended, or one typed slot's tag byte swapped."""
    message = draw(messages)
    frame = bytearray(Codec().encode_frame(reader(1), server(1), message))
    body = frame[HEADER.size :]
    how = draw(st.sampled_from(["flip", "truncate", "extend", "swap"]))
    if how == "flip" and body:
        at = draw(st.integers(0, len(body) - 1))
        body[at] ^= draw(st.integers(1, 255))
    elif how == "truncate":
        del body[draw(st.integers(0, len(body))) :]
    elif how == "extend":
        body += draw(st.binary(min_size=1, max_size=16))
    elif how == "swap":
        offsets = _typed_slot_offsets(message)
        if offsets:
            at = draw(st.sampled_from(offsets))
            body[at] = draw(st.integers(0, 0x10).filter(lambda b: b != body[at]))
    return bytes(body)


class TestDecodeBoundary:
    @FUZZ
    @given(body=st.binary(max_size=96))
    def test_raw_bytes_decode_typed_or_refuse(self, body):
        check_boundary(body)

    @FUZZ
    @given(body=mutated_frames())
    def test_mutated_frames_decode_typed_or_refuse(self, body):
        check_boundary(body)

    @FUZZ
    @given(message=messages, src=pids)
    def test_every_honest_shape_reaches_every_automaton(self, message, src):
        check_boundary(Codec().encode_frame(src, server(1), message)[HEADER.size :])


class TestFeedBoundary:
    @FUZZ
    @given(data=st.binary(max_size=128), cut=st.integers(0, 128))
    def test_raw_stream_frames_or_refuses(self, data, cut):
        buffer = FrameBuffer()
        try:
            bodies = buffer.feed(data[:cut]) + buffer.feed(data[cut:])
        except ProtocolError:
            return
        for body in bodies:
            check_boundary(body)

    @FUZZ
    @given(body=mutated_frames(), cut=st.integers(0, 64))
    def test_mutated_stream_frames_or_refuses(self, body, cut):
        stream = HEADER.pack(len(body)) + body
        buffer = FrameBuffer()
        bodies = buffer.feed(stream[:cut]) + buffer.feed(stream[cut:])
        assert [bytes(b) for b in bodies] == [body]
        check_boundary(bodies[0])
