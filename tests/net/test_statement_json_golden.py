"""The JSON a signed statement travels as in transcripts and fraud
proofs, pinned: one sha256 per fixed statement over
``json.dumps(stmt.to_wire(), sort_keys=True)``.

A fast-crash reply carries a plain tag; a fast-byzantine reply carries
the writer's signature inside its tag, the deepest value a register
message holds.  The statement's own signature is its tag alone.
"""

import hashlib
import json

import pytest

from repro.accountability import SignedStatement, sign_statement, verify_statement
from repro.crypto.signatures import SignatureAuthority
from repro.registers.messages import FastReadAck, FastWriteAck
from repro.registers.timestamps import SignedValueTag, ValueTag
from repro.sim.ids import reader, server, writer


def _fast_crash():
    authority = SignatureAuthority(3)
    reply = FastReadAck(
        op_id=3, tag=ValueTag(ts=3, value="v", prev_value=None),
        seen=frozenset({reader(1), writer(1)}), r_counter=1,
    )
    return authority, sign_statement(
        authority, server=server(1), seq=7, client=reader(2), op_id=3,
        cause_kind="FastRead", reply=reply,
    )


def _fast_byzantine():
    authority = SignatureAuthority(3)
    authority.register(writer(1))
    tag = SignedValueTag(
        ts=2, value=5, prev_value=4, signed=authority.sign(writer(1), (2, 5, 4))
    )
    reply = FastWriteAck(op_id=4, tag=tag, seen=frozenset({writer(1)}), r_counter=0)
    return authority, sign_statement(
        authority, server=server(2), seq=0, client=writer(1), op_id=4,
        cause_kind="FastWrite", reply=reply,
    )


GOLDEN = {
    _fast_crash: "da70d15e472803329228cf2b7f9fac36f47a14c34774b835b8fa43987c1246e8",
    _fast_byzantine: "19a69166f2a539527562049cc4d85bd093155fc76e143a3471e1224960d11c8b",
}


@pytest.mark.parametrize("make", list(GOLDEN), ids=lambda make: make.__name__.strip("_"))
def test_statement_json_is_pinned(make):
    authority, stmt = make()
    text = json.dumps(stmt.to_wire(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf8")).hexdigest() == GOLDEN[make]
    parsed = SignedStatement.from_wire(json.loads(text))
    assert parsed == stmt and verify_statement(authority, parsed)
