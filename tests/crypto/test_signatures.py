"""Tests for the simulated signature scheme."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.signatures import SignatureAuthority, SignedPayload
from repro.errors import SignatureError
from repro.sim.ids import reader, writer


@pytest.fixture
def authority():
    auth = SignatureAuthority(seed=1)
    auth.register(writer(1))
    auth.register(writer(2))
    return auth


class TestSignVerify:
    def test_roundtrip(self, authority):
        signed = authority.sign(writer(1), (3, "value", "prev"))
        assert authority.verify(signed)

    def test_unregistered_signer_rejected(self, authority):
        with pytest.raises(SignatureError):
            authority.sign(reader(1), "data")

    def test_register_is_idempotent(self, authority):
        before = authority.sign(writer(1), "x")
        authority.register(writer(1))
        after = authority.sign(writer(1), "x")
        assert before == after

    def test_verify_rejects_unknown_signer(self, authority):
        fake = SignedPayload(signer=reader(9), payload="x", tag=b"\x00" * 32)
        assert not authority.verify(fake)

    def test_verify_rejects_non_signed_payload(self, authority):
        assert not authority.verify("not a signature")


class TestUnforgeability:
    def test_forged_tag_fails_verification(self, authority):
        forged = authority.forge(writer(1), (99, "evil", "prev"))
        assert not authority.verify(forged)

    def test_tampered_payload_fails(self, authority):
        signed = authority.sign(writer(1), (3, "value", "prev"))
        tampered = SignedPayload(
            signer=signed.signer, payload=(4, "value", "prev"), tag=signed.tag
        )
        assert not authority.verify(tampered)

    def test_signature_transplant_fails(self, authority):
        """A signature by w2 cannot be presented as w1's."""
        signed = authority.sign(writer(2), (3, "value", "prev"))
        relabeled = SignedPayload(
            signer=writer(1), payload=signed.payload, tag=signed.tag
        )
        assert not authority.verify(relabeled)

    def test_cross_authority_signatures_invalid(self):
        first = SignatureAuthority(seed=1)
        second = SignatureAuthority(seed=2)
        first.register(writer(1))
        second.register(writer(1))
        signed = first.sign(writer(1), "data")
        assert not second.verify(signed)

    @given(
        ts=st.integers(min_value=1, max_value=10**9),
        value=st.text(max_size=30),
    )
    def test_property_sign_verify_roundtrip(self, ts, value):
        auth = SignatureAuthority(seed=0)
        auth.register(writer(1))
        assert auth.verify(auth.sign(writer(1), (ts, value, None)))

    @given(
        ts=st.integers(min_value=1, max_value=10**9),
        value=st.text(max_size=30),
    )
    def test_property_forgery_never_verifies(self, ts, value):
        auth = SignatureAuthority(seed=0)
        auth.register(writer(1))
        assert not auth.verify(auth.forge(writer(1), (ts, value, None)))


class TestCanonicalisation:
    def test_distinct_tuples_distinct_tags(self, authority):
        one = authority.sign(writer(1), (1, "ab", "c"))
        two = authority.sign(writer(1), (1, "a", "bc"))
        assert one.tag != two.tag

    def test_process_ids_canonicalise(self, authority):
        one = authority.sign(writer(1), (1, reader(1)))
        two = authority.sign(writer(1), (1, reader(2)))
        assert one.tag != two.tag

    def test_frozensets_order_independent(self, authority):
        one = authority.sign(writer(1), frozenset({reader(1), reader(2)}))
        two = authority.sign(writer(1), frozenset({reader(2), reader(1)}))
        assert one.tag == two.tag

    def test_unsupported_type_raises(self, authority):
        with pytest.raises(SignatureError):
            authority.sign(writer(1), object())

    def test_describe_is_short(self, authority):
        signed = authority.sign(writer(1), (1, "v", "p"))
        assert "signed by w1" in signed.describe()


class TestVerifyNeverRaises:
    """Byzantine code may construct arbitrary ``SignedPayload`` objects;
    ``verify`` answers "True iff…", so each is a rejection."""

    @pytest.mark.parametrize("tag", ["00" * 32, None, 7, 1.5, ["\x00"] * 32, bytearray(32)])
    def test_tag_that_is_not_bytes(self, authority, tag):
        fake = SignedPayload(signer=writer(1), payload=(3, "value", "prev"), tag=tag)
        assert authority.verify(fake) is False

    def test_the_right_tag_as_hex_text_is_still_not_a_signature(self, authority):
        signed = authority.sign(writer(1), (3, "value", "prev"))
        fake = SignedPayload(signed.signer, signed.payload, signed.tag.hex())
        assert authority.verify(fake) is False

    @pytest.mark.parametrize("signer", [[writer(1)], {"kind": "writer"}, {1}, None, "w1", 1])
    def test_signer_that_cannot_be_looked_up(self, authority, signer):
        tag = authority.sign(writer(1), "x").tag
        assert authority.verify(SignedPayload(signer=signer, payload="x", tag=tag)) is False

    def test_verify_tag_survives_a_hostile_signature(self, authority):
        from repro.registers.timestamps import SignedValueTag, verify_tag

        hostile = SignedValueTag(
            ts=3, value="v", prev_value="p",
            signed=SignedPayload(signer=writer(1), payload=(3, "v", "p"), tag=None),
        )
        assert verify_tag(authority, writer(1), hostile) is False

    def test_honest_signatures_still_verify(self, authority):
        assert authority.verify(authority.sign(writer(1), (3, "value", "prev"))) is True
