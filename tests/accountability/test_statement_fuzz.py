"""Fuzzing the JSON statement path: statements, transcripts and fraud
proofs are input from whoever wants someone blamed.

Starting from valid ``repro-transcript/v2`` / ``repro-fraud-proof/v2``
dicts, drawn mutations drop keys, replace values with drawn JSON,
mistype ``seq`` / ``tag`` / ``op_id`` or nest a value far deeper than any
register message.  Whatever the input, parsing returns a result or
raises :class:`~repro.errors.SpecificationError`; what parses ends in a
verdict.  Statements signed over drawn replies round-trip exactly and
verify.
"""

import copy
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.accountability import (
    FraudProof,
    SignedStatement,
    TranscriptLog,
    audit,
    audit_all,
    sign_statement,
    verify_fraud_proof,
    verify_statement,
)
from repro.crypto.signatures import SignatureAuthority
from repro.errors import SpecificationError
from repro.registers import messages as msg
from repro.registers.messages import SERVER_REPLIES
from repro.registers.timestamps import MWTimestamp, SignedValueTag, ValueTag
from repro.sim.ids import reader, server, writer

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
pids = st.one_of(
    st.builds(server, st.integers(1, 20)),
    st.builds(reader, st.integers(1, 20)),
    st.builds(writer, st.integers(1, 3)),
)
_authority = SignatureAuthority(seed=7)
_authority.register(writer(1))
tags = st.one_of(
    st.builds(
        ValueTag,
        st.integers(0, 99) | st.builds(MWTimestamp, st.integers(0, 9), st.integers(1, 3)),
        st.integers() | st.text(max_size=3),
        st.none() | st.integers(),
    ),
    st.builds(
        lambda ts, value, prev: SignedValueTag(
            ts, value, prev, _authority.sign(writer(1), (ts, value, prev))
        ),
        st.integers(1, 99), st.integers(), st.none() | st.integers(),
    ),
)
field_values = st.one_of(
    st.integers(-5, 10**12),
    st.sampled_from([True, 1.0, None, "é", "%b"]),
    st.text(max_size=6),
    pids,
    tags,
    st.frozensets(pids | st.integers(0, 3) | st.booleans(), max_size=4),
)
replies = st.sampled_from(SERVER_REPLIES).flatmap(
    lambda cls: st.builds(cls, **{name: field_values for name in cls.__dataclass_fields__})
)


def _statement(seq, ts):
    reply = msg.FastReadAck(
        op_id=seq + 1, tag=ValueTag(ts, 1), seen=frozenset({writer(1)}), r_counter=0
    )
    return sign_statement(
        _authority, server=server(1), seq=seq, client=reader(1), op_id=seq + 1,
        cause_kind="FastRead", reply=reply,
    )


def _valid_inputs():
    statements = [_statement(0, 2), _statement(1, 1)]
    log = TranscriptLog(authority_seed=7)
    log.statements = list(statements)
    proof = audit(log)
    assert proof is not None
    return {
        "statement": statements[0].to_wire(),
        "transcript": log.to_dict(),
        "proof": proof.to_dict(),
    }


VALID = json.loads(json.dumps(_valid_inputs()))


def _parse(kind, data):
    """Parse one input the way its consumer does; what parses must end
    in a verdict, not an exception."""
    if kind == "statement":
        verify_statement(_authority, SignedStatement.from_wire(data))
    elif kind == "transcript":
        audit_all(TranscriptLog.from_dict(data))
    else:
        FraudProof.from_dict(data).describe()
        assert verify_fraud_proof(data) in (True, False)


def _slots(node):
    """Every (container, key) pair inside ``node``."""
    found, pending = [], [node]
    while pending:
        node = pending.pop()
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            found.append((node, key))
            if isinstance(value, (dict, list)):
                pending.append(value)
    return found


def _statements_in(kind, data):
    if kind == "statement":
        return [data]
    if kind == "transcript":
        # An earlier mutation may have replaced the list itself.
        statements = data.get("statements")
        if not isinstance(statements, list):
            return []
        return [item for item in statements if isinstance(item, dict)]
    return [data[half] for half in ("first", "second") if isinstance(data.get(half), dict)]


def _deep(depth, shape, leaf):
    value = leaf
    for _ in range(depth):
        if shape == "tagged":
            value = {"__k": "list", "items": [value]}
        elif shape == "list":
            value = [value]
        else:
            value = {"k": value}
    return value


WRONG_TYPE = {
    "seq": json_values.filter(lambda v: type(v) is not int),
    "tag": json_values.filter(lambda v: not isinstance(v, str)),
    "op_id": json_values.filter(lambda v: v is not None and type(v) is not int),
}


def _mutate(draw, kind, data):
    action = draw(st.sampled_from(["drop", "replace", "retype", "deepen"]))
    if action == "retype":
        targets = _statements_in(kind, data)
        if targets:
            target = targets[draw(st.integers(0, len(targets) - 1))]
            key = draw(st.sampled_from(sorted(WRONG_TYPE)))
            target[key] = draw(WRONG_TYPE[key])
        return
    slots = _slots(data)
    if not slots:
        return
    container, key = slots[draw(st.integers(0, len(slots) - 1))]
    if action == "drop":
        del container[key]
    elif action == "replace":
        container[key] = draw(json_values)
    else:
        container[key] = _deep(
            draw(st.integers(33, 3000)),
            draw(st.sampled_from(["tagged", "list", "dict"])),
            draw(st.sampled_from([1, "s1", {"__k": "pid", "id": "r1"}])),
        )


@given(kind=st.sampled_from(sorted(VALID)), data=st.data())
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_input_parses_or_is_a_named_error(kind, data):
    mutated = copy.deepcopy(VALID[kind])
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data.draw, kind, mutated)
    try:
        _parse(kind, mutated)
    except SpecificationError:
        pass


@pytest.mark.parametrize("kind", sorted(VALID))
def test_unmutated_inputs_parse(kind):
    _parse(kind, copy.deepcopy(VALID[kind]))


@given(
    reply=replies,
    seq=st.integers(0, 10**9),
    op_id=st.none() | st.integers(-5, 10**9),
    cause=st.text(max_size=8),
    client=pids,
)
@settings(max_examples=300, deadline=None)
def test_signed_statements_round_trip_and_verify(reply, seq, op_id, cause, client):
    stmt = sign_statement(
        _authority, server=server(3), seq=seq, client=client, op_id=op_id,
        cause_kind=cause, reply=reply,
    )
    parsed = SignedStatement.from_wire(json.loads(json.dumps(stmt.to_wire())))
    assert parsed == stmt
    assert parsed.signature.payload == parsed.statement_payload()
    assert verify_statement(_authority, parsed)
    assert parsed.to_wire() == stmt.to_wire()
