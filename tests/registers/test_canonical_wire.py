"""The direct canonical writer is ``_canonical`` — proven, not argued.

``WireMessage.canonical_wire()`` and ``canonical_wire_value`` write the
bytes an accountability statement signs without building the wire dict
first.  ``wire_encode_value`` + ``_canonical`` stay the specification;
this file holds the writers to it byte for byte, over every registered
message class and over the whole closed set of field values, and pins
each of the places where a plausible shortcut produces different bytes.
"""

import enum
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.signatures import CanonicalPayload, SignedPayload, _canonical
from repro.errors import ProtocolError
from repro.registers import messages as msg
from repro.registers.messages import (
    MESSAGE_TYPES,
    WireMessage,
    canonical_wire_value,
    wire_encode_value,
)
from repro.registers.timestamps import MWTimestamp, SignedValueTag, ValueTag
from repro.sim.ids import ProcessId, reader, server, writer


class Level(enum.IntEnum):
    HIGH = 2


class Name(str):
    pass


def spec(value: Any) -> bytes:
    return _canonical(wire_encode_value(value))


# ----------------------------------------------------------------------
# the closed set of message-field values (and a little beyond it)

pids = st.one_of(
    st.builds(server, st.sampled_from([1, 2, 9, 10, 11, 100])),
    st.builds(reader, st.sampled_from([1, 2, 9, 10, 11, 100])),
    st.builds(writer, st.sampled_from([1, 2, 10])),
    # equal and hash-equal to r1, but not r1 on the wire ("rTrue", "r1.0")
    st.sampled_from([ProcessId("reader", True), ProcessId("reader", 1.0)]),
)

hashable_scalars = st.one_of(
    st.integers(min_value=-(10**12), max_value=10**12),
    st.sampled_from([0, 1, True, False, 1.0, 0.0, -0.0, 2.5, None]),
    st.floats(allow_nan=False),
    st.text(max_size=8),
    st.sampled_from(["é", "日本", "a,b=c}", "%b", "r1", "r10"]),
    st.binary(max_size=6),
    st.sampled_from([Level.HIGH, Name("ab")]),
    pids,
    st.builds(MWTimestamp, st.integers(0, 300), st.integers(0, 12)),
)

timestamps = st.integers(0, 300) | st.builds(MWTimestamp, st.integers(0, 9), st.integers(0, 9))

hashable = st.recursive(
    hashable_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(tuple),
        st.frozensets(children, max_size=4),
        st.builds(ValueTag, timestamps, children, children),
    ),
    max_leaves=6,
)

signed_payloads = st.builds(
    SignedPayload,
    signer=pids,
    payload=st.tuples(st.integers(0, 300), hashable, hashable),
    tag=st.binary(min_size=32, max_size=32),
)

values = st.recursive(
    st.one_of(
        hashable,
        signed_payloads,
        st.builds(
            SignedValueTag, st.integers(0, 300), hashable, hashable, st.none() | signed_payloads
        ),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(hashable_scalars, children, max_size=3),
    ),
    max_leaves=8,
)


class TestValueWriter:
    @given(value=values)
    @settings(max_examples=300, deadline=None)
    def test_equals_the_specification(self, value):
        assert canonical_wire_value(value) == spec(value)

    def test_every_writer_shadows_an_encoder(self):
        # the rest of the encoder table (plain dicts, subclasses it
        # adopted) goes through the specification
        assert set(msg._CANONICAL_WIRE) <= set(msg._ENCODERS)
        assert dict not in msg._CANONICAL_WIRE and CanonicalPayload not in msg._CANONICAL_WIRE

    def test_outside_the_closed_set_fails_as_the_specification_does(self):
        with pytest.raises(ProtocolError, match="cannot wire-encode object"):
            canonical_wire_value(object())
        with pytest.raises(ProtocolError, match="cannot wire-encode object"):
            canonical_wire_value((1, [object()]))


@pytest.mark.parametrize("cls", sorted(MESSAGE_TYPES.values(), key=lambda c: c.__name__))
class TestMessageWriter:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_equals_canonical_of_to_wire(self, cls, data):
        # Field annotations are not enforced: any field may hold any value.
        message = cls(**{name: data.draw(values, label=name) for name in cls.__dataclass_fields__})
        assert message.canonical_wire() == _canonical(message.to_wire())

    def test_typical_values(self, cls):
        typical = {
            "op_id": 3,
            "r_counter": 10,
            "reader": reader(12),
            "ts": MWTimestamp(4, 2),
            "tag": ValueTag(MWTimestamp(4, 2), "v", None),
            "seen": frozenset({writer(1), reader(1), reader(2), reader(10)}),
        }
        message = cls(**{name: typical[name] for name in cls.__dataclass_fields__})
        assert message.canonical_wire() == _canonical(message.to_wire())


class TestTraps:
    """Each shortcut that measures faster and signs different bytes."""

    def test_equal_values_of_different_type_write_different_bytes(self):
        # trap 1: a cache keyed on the value would conflate all of these
        for same in ([1, True, 1.0], [0, False, 0.0]):
            assert len({canonical_wire_value(v) for v in same}) == 3
        assert ValueTag(1, "v") == ValueTag(True, "v")
        assert canonical_wire_value(ValueTag(1, "v")) != canonical_wire_value(ValueTag(True, "v"))
        assert frozenset({1}) == frozenset({True})
        assert canonical_wire_value(frozenset({1})) != canonical_wire_value(frozenset({True}))

    @pytest.mark.parametrize("first", [0, 1])
    def test_the_pid_cache_is_consulted_for_exact_pids_only(self, first, monkeypatch):
        # r1 and ProcessId("reader", True) are equal and hash alike, so a
        # dict lookup finds either under the other's key — in both orders.
        lookalikes = [reader(1), ProcessId("reader", True)]
        monkeypatch.setattr(msg, "_PID_FORMS", {})
        ordered = [lookalikes[first], lookalikes[1 - first]]
        written = [canonical_wire_value(frozenset({pid})) for pid in ordered]
        assert written == [spec(frozenset({pid})) for pid in ordered]
        assert written[0] != written[1]
        assert list(msg._PID_FORMS) == [reader(1)]
        assert all(type(pid.index) is int for pid in msg._PID_FORMS)

    def test_the_pid_cache_is_bounded(self, monkeypatch):
        monkeypatch.setattr(msg, "_PID_FORMS", {})
        many = frozenset(reader(i) for i in range(1, 5000))
        assert canonical_wire_value(many) == spec(many)
        assert len(msg._PID_FORMS) == 4096

    def test_bool_and_subclasses_are_named_by_their_own_type(self):
        # trap 2: bool is an int; an IntEnum is named by _c_subclass's rule
        assert canonical_wire_value(True) == b"bool:True"
        assert canonical_wire_value(Level.HIGH) == b"Level:<Level.HIGH: 2>"
        assert canonical_wire_value(Name("ab")) == b"s2:ab"
        tagged = ValueTag(Level.HIGH, Name("ab"), True)
        assert canonical_wire_value(tagged) == spec(tagged)
        assert b"Level:<Level.HIGH: 2>" in canonical_wire_value(tagged)

    def test_frozenset_items_are_ordered_by_repr_of_their_wire_form(self):
        # trap 3: r1 < r10 < r2, which is neither pid order nor byte order
        seen = frozenset({reader(2), reader(10), reader(1)})
        written = canonical_wire_value(seen)
        assert written == spec(seen)
        assert written.index(b"s2:r1") < written.index(b"s3:r10") < written.index(b"s2:r2")
        # byte order would put the two-character ids first
        assert sorted([b"s3:r10", b"s2:r2", b"s2:r1"]) == [b"s2:r1", b"s2:r2", b"s3:r10"]

    def test_mixed_frozensets_follow_the_same_rule(self):
        mixed = frozenset({reader(1), 1, "1", (1,), None, 2.0, ProcessId("reader", 1.0)})
        assert canonical_wire_value(mixed) == spec(mixed)

    def test_dict_items_are_ordered_by_canonical_key_bytes(self):
        # trap 4: a ten-character key canonicalises to "s10:…", before "s2:…"
        @dataclass(frozen=True)
        class Odd(WireMessage):
            zz: int
            ten_chars_: int
            a: int

        message = Odd(zz=1, ten_chars_=2, a=3)
        written = message.canonical_wire()
        assert written == _canonical(message.to_wire())
        assert (
            written.index(b"s10:ten_chars_") < written.index(b"s1:a") < written.index(b"s2:zz")
        )

    def test_a_subclass_of_a_message_is_its_own_wire_type(self):
        class Louder(msg.Query):
            pass

        assert Louder(op_id=1).canonical_wire() == _canonical(Louder(op_id=1).to_wire())
        assert msg.Query(op_id=1).canonical_wire() == _canonical(msg.Query(op_id=1).to_wire())
        assert Louder(op_id=1).canonical_wire() != msg.Query(op_id=1).canonical_wire()
