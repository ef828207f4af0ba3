"""Golden bytes of the canonical signing encoder.

Every HMAC in the repository — the Byzantine protocol's signed
timestamps, every accountability statement, every committed fraud-proof
certificate — is computed over ``_canonical`` bytes, so a faster
canonicaliser has to be byte-identical, not merely injective.  These
bytes were recorded from the ``isinstance``-chain encoder the dispatch
table replaced.
"""

import enum

import pytest

from repro.accountability.statements import STATEMENT_DOMAIN
from repro.crypto.signatures import SignatureAuthority, _canonical
from repro.errors import SignatureError
from repro.registers.messages import FastReadAck
from repro.registers.timestamps import ValueTag
from repro.sim.ids import reader, server, writer

STATEMENT_TUPLE = (
    STATEMENT_DOMAIN,
    server(1),
    7,
    reader(2),
    None,  # op id of a reply kind that carries none
    "FastRead",
    FastReadAck(
        op_id=3,
        tag=ValueTag(2, "v", None),
        seen=frozenset({reader(1), writer(1)}),
        r_counter=1,
    ).to_wire(),
)

STATEMENT_BYTES = (
    b"t7(s18:repro-statement/v1,t2(s6:server,int:1),int:7,t2(s6:reader,int:2),"
    b"NoneType:None,s8:FastRead,d3{s1:f=d4{s3:tag=d4{s2:ts=int:2,s3:__k=s3:tag,"
    b"s4:prev=NoneType:None,s5:value=s1:v},s4:seen=d2{s3:__k=s4:fset,s5:items="
    b"l2[d2{s2:id=s2:r1,s3:__k=s3:pid},d2{s2:id=s2:w1,s3:__k=s3:pid}]},"
    b"s5:op_id=int:3,s9:r_counter=int:1},s1:t=s11:FastReadAck,s1:v=int:1})"
)


class TestGoldenBytes:
    def test_full_statement_tuple(self):
        assert _canonical(STATEMENT_TUPLE) == STATEMENT_BYTES

    def test_statement_hmac(self):
        authority = SignatureAuthority(3)
        authority.register(server(1))
        assert authority.sign(server(1), STATEMENT_TUPLE).tag.hex() == (
            "d19e41a1f7609b1e539e3785a46e75db0417b369efe4c85003e9c353a1955d3a"
        )

    def test_every_atom_and_container(self):
        value = (
            frozenset({reader(1), writer(1), 3, "x"}),
            1.5,
            True,
            b"\x00\xff",
            [None],
        )
        assert _canonical(value) == (
            b"t5(f4{int:3,s1:x,t2(s6:reader,int:1),t2(s6:writer,int:1)},"
            b"float:1.5,bool:True,b2:\x00\xff,l1[NoneType:None])"
        )

    def test_pids_are_signed_as_the_tuples_they_are(self):
        # ProcessId is a NamedTuple: there is no pid-specific form.
        assert _canonical(server(1)) == _canonical(("server", 1)) == b"t2(s6:server,int:1)"


class TestSubclasses:
    """Types outside the table resolve to their first encodable base,
    exactly as the ``isinstance`` chain did."""

    def test_int_subclass_is_named_by_the_subclass(self):
        class Level(enum.IntEnum):
            HIGH = 2

        assert _canonical(Level.HIGH) == b"Level:<Level.HIGH: 2>"
        assert _canonical(Level.HIGH) != _canonical(2)

    def test_str_subclass_encodes_as_str(self):
        class Name(str):
            pass

        assert _canonical(Name("ab")) == b"s2:ab"

    def test_unencodable_type_raises(self):
        with pytest.raises(SignatureError, match="cannot canonicalise object"):
            _canonical(object())
