"""The socket's bytes, pinned: one sha256 over the preamble a link writes
and every registered message kind's ``repro-bin/v2`` frame, without and
with an accountability statement.

Only public names that every build with a preamble has are used, so the
same file checks that a refactor of the codec changed no byte.
"""

import hashlib

from repro.accountability import sign_statement
from repro.crypto.signatures import SignatureAuthority
from repro.net.client import ClientPool
from repro.net.runtime import FrameLink
from repro.registers.messages import (
    MESSAGE_TYPES,
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
from repro.registers.timestamps import MWTimestamp, ValueTag
from repro.sim.ids import reader, server, writer

#: sha256 over the preamble, then each kind's frame ``s1 -> r2`` without
#: and with its statement, kinds in sorted order.
WIRE_BYTES_SHA256 = "ed5f8159f23f6d988985adb0e8ddd12cd669c0c4a8d82b0655536125bf0375f2"

_TAG = ValueTag(ts=3, value="v", prev_value=None)
SAMPLES = {
    "FastRead": FastRead(op_id=1, tag=_TAG, r_counter=2),
    "FastWrite": FastWrite(op_id=2, tag=_TAG),
    "FastReadAck": FastReadAck(
        op_id=3, tag=_TAG, seen=frozenset({reader(1), writer(1)}), r_counter=1
    ),
    "FastWriteAck": FastWriteAck(op_id=4, tag=_TAG, seen=frozenset(), r_counter=0),
    "Query": Query(op_id=5),
    "QueryReply": QueryReply(op_id=6, tag=_TAG),
    "Store": Store(op_id=7, tag=_TAG),
    "StoreAck": StoreAck(op_id=8, ts=MWTimestamp(num=4, wid=2)),
    "MaxMinRead": MaxMinRead(op_id=9, r_counter=3),
    "MaxMinGossip": MaxMinGossip(op_id=10, reader=reader(2), r_counter=1, tag=_TAG),
    "MaxMinReadAck": MaxMinReadAck(op_id=11, tag=_TAG, r_counter=1),
}


class _Transport:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(data)


def _endpoint():
    """A pool's codec and the preamble its link writes.  ``binary`` is
    named although it is the default: builds that also spoke json must
    produce these bytes too."""
    pool = ClientPool({}, serializer="binary")
    transport = _Transport()
    FrameLink(pool).connection_made(transport)
    return pool.codec, transport.writes


def test_samples_cover_the_registry():
    assert set(SAMPLES) == set(MESSAGE_TYPES)


def test_preamble_bytes():
    _, writes = _endpoint()
    assert writes == [b"\x00\x00\x00\x14\xa5repro-wire/1\x00binary"]


def test_every_frame_byte_is_pinned():
    codec, writes = _endpoint()
    digest = hashlib.sha256(writes[0])
    for name in sorted(MESSAGE_TYPES):
        message = SAMPLES[name]
        statement = sign_statement(
            SignatureAuthority(3),
            server=server(1),
            seq=7,
            client=reader(2),
            op_id=message.op_id,
            cause_kind="FastRead",
            reply=message,
        )
        digest.update(codec.encode_frame(server(1), reader(2), message))
        digest.update(
            codec.encode_frame(server(1), reader(2), message, statement=statement)
        )
    assert digest.hexdigest() == WIRE_BYTES_SHA256
