"""What a statement is signed over, and that nothing is verified less.

``sign_statement`` and ``verify_statement`` HMAC bytes written straight
from the statement's fields; the tuple ``statement_payload()`` returns
is the specification of those bytes.  This file pins the two together
(differentially, across processes and against equal-but-different
values), and shows that the signature's *claimed* payload — now built
only when somebody reads it — still decides nothing.
"""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.accountability import SignedStatement, sign_statement, verify_statement
from repro.accountability.statements import STATEMENT_DOMAIN, StatementPayload
from repro.crypto.signatures import SignatureAuthority, SignedPayload, _canonical
from repro.registers import messages as msg
from repro.registers.messages import SERVER_REPLIES
from repro.registers.timestamps import MWTimestamp, ValueTag
from repro.sim.ids import ProcessId, reader, server, writer

pids = st.one_of(
    st.builds(server, st.sampled_from([1, 5, 10, 12, 130])),
    st.builds(reader, st.sampled_from([1, 2, 10, 11])),
    st.builds(writer, st.sampled_from([1, 2])),
)
field_values = st.one_of(
    st.integers(-5, 10**6),
    st.sampled_from([True, 1.0, None, "é", "FastRead", "%b"]),
    st.text(max_size=6),
    pids,
    st.builds(
        ValueTag,
        st.integers(0, 99) | st.builds(MWTimestamp, st.integers(0, 9), st.integers(0, 9)),
        st.text(max_size=3),
        st.none() | st.integers(),
    ),
    st.frozensets(pids | st.integers(0, 3) | st.booleans(), max_size=4),
)
# seq / op id / cause are signed as they are, not in wire form: whatever
# ``_canonical`` itself takes may stand there
plain_values = st.one_of(
    st.integers(-5, 10**6),
    st.sampled_from([True, 1.0, None, "é", "FastRead", "%b", (1, "x"), [None]]),
    st.text(max_size=6),
    pids,
)
replies = st.sampled_from(SERVER_REPLIES).flatmap(
    lambda cls: st.builds(cls, **{name: field_values for name in cls.__dataclass_fields__})
)


def ack(ts=1, seen=frozenset({writer(1)}), op_id=1):
    return msg.FastReadAck(op_id=op_id, tag=ValueTag(ts, 7), seen=seen, r_counter=0)


def signed(authority, reply=None, **overrides):
    fields = dict(server=server(1), seq=0, client=reader(1), op_id=1, cause_kind="FastRead")
    fields.update(overrides)
    return sign_statement(authority, reply=reply if reply is not None else ack(), **fields)


class TestBytesAreTheSpecification:
    @given(
        server=pids, seq=plain_values, client=pids, op_id=plain_values, cause=plain_values,
        reply=replies,
    )
    @settings(max_examples=300, deadline=None)
    def test_direct_bytes_equal_canonical_of_the_tuple(
        self, server, seq, client, op_id, cause, reply
    ):
        payload = StatementPayload(server, seq, client, op_id, cause, reply)
        spelled_out = (STATEMENT_DOMAIN, server, seq, client, op_id, cause, reply.to_wire())
        assert payload.expand() == spelled_out
        assert payload.canonical_bytes() == _canonical(spelled_out)

    @given(seq=st.integers(0, 10**6), reply=replies)
    @settings(max_examples=100, deadline=None)
    def test_same_hmac_as_signing_the_tuple(self, seq, reply):
        authority = SignatureAuthority(seed=3)
        stmt = signed(authority, reply, seq=seq)
        assert stmt.signature.tag == authority.sign(server(1), stmt.statement_payload()).tag
        assert verify_statement(authority, stmt)

    def test_the_signature_payload_stands_for_the_tuple(self):
        stmt = signed(SignatureAuthority(seed=0))
        claimed = stmt.signature.payload
        assert isinstance(claimed, StatementPayload)
        assert claimed == stmt.statement_payload() and stmt.statement_payload() == claimed
        assert repr(claimed) == repr(stmt.statement_payload())
        assert claimed.canonical_bytes() == _canonical(stmt.statement_payload())
        with pytest.raises(TypeError):
            hash(claimed)  # as the tuple, which holds the reply's dict


class TestEqualValuesAreNotTheSameStatement:
    """Trap 1, end to end: sign one value, verify its equal-but-different
    twin in the same process — whichever is seen first."""

    TWINS = [
        (ack(ts=1), ack(ts=True)),
        (ack(ts=1), ack(ts=1.0)),
        (ack(seen=frozenset({1})), ack(seen=frozenset({True}))),
        (ack(seen=frozenset({reader(1)})), ack(seen=frozenset({ProcessId("reader", True)}))),
        (ack(op_id=1), ack(op_id=True)),
    ]

    @pytest.mark.parametrize("pair", TWINS)
    @pytest.mark.parametrize("swap", [False, True])
    def test_twin_does_not_verify(self, pair, swap):
        first, twin = reversed(pair) if swap else pair
        assert first == twin  # equal, hash-equal — and a different statement
        authority = SignatureAuthority(seed=0)
        stmt = signed(authority, first)
        assert verify_statement(authority, stmt)
        assert not verify_statement(authority, replace(stmt, reply=twin))
        received = SignedStatement.from_envelope(
            stmt.server, stmt.client, twin, stmt.seq, stmt.cause_kind, stmt.signature.tag
        )
        assert not verify_statement(authority, received)
        assert verify_statement(authority, signed(authority, twin))

    def test_twin_seq_does_not_verify(self):
        authority = SignatureAuthority(seed=0)
        stmt = signed(authority, seq=1)
        assert not verify_statement(authority, replace(stmt, seq=True))


_SIGN_IN_CHILD = """
import json, sys
from repro.accountability import sign_statement
from repro.crypto.signatures import SignatureAuthority
from repro.registers import messages as msg
from repro.registers.timestamps import ValueTag
from repro.sim.ids import reader, server, writer
seen = frozenset("abcdefgh") | {reader(i) for i in range(1, 13)} | {writer(1)}
stmt = sign_statement(
    SignatureAuthority(seed=11), server=server(1), seq=4, client=reader(1), op_id=2,
    cause_kind="FastRead",
    reply=msg.FastReadAck(op_id=2, tag=ValueTag(3, "v", "u"), seen=seen, r_counter=1),
)
json.dump({"order": [str(item) for item in seen], "wire": stmt.to_wire()}, sys.stdout)
"""


def test_signed_in_another_process_under_another_hash_seed():
    """A frozenset's iteration order rides on string hashes, which differ
    per process; the signed bytes must not."""
    outputs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", _SIGN_IN_CHILD],
            env=env, capture_output=True, text=True, check=True,
        )
        outputs.append(json.loads(done.stdout))
    assert outputs[0]["order"] != outputs[1]["order"]  # the seeds did reorder the set
    assert outputs[0]["wire"] == outputs[1]["wire"]
    verifier = SignatureAuthority(seed=11)
    verifier.register(server(1))
    for output in outputs:
        assert verify_statement(verifier, SignedStatement.from_wire(output["wire"]))


class TestTheClaimedPayloadDecidesNothing:
    """``sig.payload`` is what the signer *says* it signed.  The verifier
    recomputes the bytes from the fields it received, so editing the
    claim changes no verdict, and a true claim rescues no edited field."""

    def wire(self, authority):
        return json.loads(json.dumps(signed(authority).to_wire()))

    def test_garbage_claim_still_verifies(self):
        authority = SignatureAuthority(seed=0)
        wire = self.wire(authority)
        wire["sig"]["payload"] = {"__k": "tuple", "items": ["not", "what", "was", "signed"]}
        clone = SignedStatement.from_wire(wire)
        assert verify_statement(authority, clone)
        assert clone != signed(authority)  # == still sees the claim
        assert clone.to_wire() == wire  # and it travels on as claimed

    def test_claim_about_another_reply_still_verifies(self):
        authority = SignatureAuthority(seed=0)
        wire = self.wire(authority)
        claimed_reply = wire["sig"]["payload"]["items"][6]
        assert claimed_reply["__k"] == "dict"
        wire["sig"]["payload"]["items"][6] = json.loads(
            json.dumps(claimed_reply).replace('"FastReadAck"', '"FastWriteAck"')
        )
        assert verify_statement(authority, SignedStatement.from_wire(wire))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda wire: wire.update(seq=wire["seq"] + 1),
            lambda wire: wire.update(client="r2"),
            lambda wire: wire.update(op_id=9),
            lambda wire: wire.update(cause="FastWrite"),
            lambda wire: wire["reply"]["f"]["tag"].update(ts=5),
            lambda wire: wire["reply"]["f"].update(r_counter=1),
        ],
    )
    def test_true_claim_does_not_rescue_an_edited_field(self, edit):
        authority = SignatureAuthority(seed=0)
        wire = self.wire(authority)
        edit(wire)  # the claim under "sig" is untouched and still true of the original
        assert not verify_statement(authority, SignedStatement.from_wire(wire))

    def test_a_lazy_claim_made_from_other_fields_is_not_trusted(self):
        # In-process: the signature object of statement B, whose payload
        # remembers B's bytes and whose tag is valid for them, attached
        # to the fields of statement A.
        authority = SignatureAuthority(seed=0)
        about_b = signed(authority, ack(ts=2))
        assert about_b.signature.payload.canonical_bytes()  # remembered
        grafted = SignedStatement(
            server(1), 0, reader(1), 1, "FastRead", ack(ts=1), about_b.signature
        )
        assert not verify_statement(authority, grafted)
        assert verify_statement(authority, about_b)

    def test_received_statement_equals_the_signed_one(self):
        authority = SignatureAuthority(seed=0)
        stmt = signed(authority)
        received = SignedStatement.from_envelope(
            stmt.server, stmt.client, stmt.reply, stmt.seq, stmt.cause_kind, stmt.signature.tag
        )
        parsed = SignedStatement.from_wire(stmt.to_wire())
        assert received == stmt == parsed == received
        assert isinstance(parsed.signature.payload, tuple)
        assert isinstance(received.signature.payload, StatementPayload)
        assert received.to_wire() == stmt.to_wire() == parsed.to_wire()
        as_parsed = SignedPayload(server(1), stmt.statement_payload(), stmt.signature.tag)
        assert as_parsed == stmt.signature and stmt.signature == as_parsed
