"""Unit surface of the transcript auditor and fraud-proof certificates.

The contradiction predicates, certificate extraction/minimality, the
serialized ``repro-fraud-proof/v1`` round-trip, and standalone
re-verification including tamper detection.
"""

import json

import pytest

from repro.accountability import (
    DUPLICATE_SEQ,
    FRAUD_PROOF_FORMAT,
    TAG_REGRESSION,
    FraudProof,
    TranscriptLog,
    audit,
    audit_all,
    contradiction_kind,
    sign_statement,
    verify_fraud_proof,
)
from repro.crypto.signatures import SignatureAuthority
from repro.errors import SpecificationError
from repro.registers import messages as msg
from repro.registers.timestamps import ValueTag
from repro.sim.ids import reader, server, writer


def ack(ts, value=1, op_id=1):
    return msg.FastReadAck(
        op_id=op_id,
        tag=ValueTag(ts, value),
        seen=frozenset({writer(1)}),
        r_counter=0,
    )


def stmt(authority, seq, ts, index=1, op_id=1):
    return sign_statement(
        authority,
        server=server(index),
        seq=seq,
        client=reader(1),
        op_id=op_id,
        cause_kind="FastRead",
        reply=ack(ts, op_id=op_id),
    )


def transcript(*statements, seed=0):
    # a fresh verifying authority, as in the client collection path:
    # register (derive the key) before verifying
    authority = SignatureAuthority(seed=seed)
    log = TranscriptLog(authority_seed=seed)
    for statement in statements:
        authority.register(statement.server)
        assert log.record(statement, authority)
    return log


class TestContradictionKind:
    def test_monotone_statements_are_consistent(self):
        authority = SignatureAuthority(seed=0)
        assert (
            contradiction_kind(stmt(authority, 0, ts=1), stmt(authority, 1, ts=2))
            is None
        )
        # equal tags are fine too (no write in between)
        assert (
            contradiction_kind(stmt(authority, 0, ts=1), stmt(authority, 1, ts=1))
            is None
        )

    def test_tag_regression_detected(self):
        authority = SignatureAuthority(seed=0)
        first = stmt(authority, 0, ts=2)
        second = stmt(authority, 1, ts=1)
        assert contradiction_kind(first, second) == TAG_REGRESSION

    def test_duplicate_seq_detected(self):
        authority = SignatureAuthority(seed=0)
        first = stmt(authority, 0, ts=1, op_id=1)
        second = stmt(authority, 0, ts=1, op_id=2)
        assert contradiction_kind(first, second) == DUPLICATE_SEQ

    def test_identical_resend_is_not_equivocation(self):
        authority = SignatureAuthority(seed=0)
        assert (
            contradiction_kind(stmt(authority, 0, ts=1), stmt(authority, 0, ts=1))
            is None
        )

    def test_cross_server_pairs_never_contradict(self):
        authority = SignatureAuthority(seed=0)
        first = stmt(authority, 0, ts=2, index=1)
        second = stmt(authority, 1, ts=1, index=2)
        assert contradiction_kind(first, second) is None

    def test_order_matters(self):
        """seq order, not presentation order: the reversed pair asserts
        nothing (the floor came after the lower tag)."""
        authority = SignatureAuthority(seed=0)
        later_high = stmt(authority, 1, ts=2)
        earlier_low = stmt(authority, 0, ts=1)
        assert contradiction_kind(later_high, earlier_low) is None


class TestAudit:
    def test_clean_transcript_yields_nothing(self):
        authority = SignatureAuthority(seed=0)
        log = transcript(
            stmt(authority, 0, ts=1),
            stmt(authority, 1, ts=1),
            stmt(authority, 2, ts=2),
            stmt(authority, 0, ts=2, index=2),
        )
        assert audit(log) is None
        assert audit_all(log) == []

    def test_regression_extracted_across_a_gap(self):
        """The floor and the regressing reply need not be adjacent."""
        authority = SignatureAuthority(seed=0)
        log = transcript(
            stmt(authority, 0, ts=3),
            stmt(authority, 1, ts=3),
            stmt(authority, 2, ts=1),  # regresses against seq 0's floor
        )
        proof = audit(log)
        assert proof is not None
        assert proof.kind == TAG_REGRESSION
        assert str(proof.accused) == "s1"
        assert (proof.first.seq, proof.second.seq) == (0, 2)

    def test_one_proof_per_lying_server(self):
        authority = SignatureAuthority(seed=0)
        log = transcript(
            stmt(authority, 0, ts=2, index=1),
            stmt(authority, 1, ts=1, index=1),
            stmt(authority, 0, ts=2, index=3),
            stmt(authority, 1, ts=1, index=3),
            stmt(authority, 0, ts=1, index=2),  # honest
        )
        proofs = audit_all(log)
        assert [str(proof.accused) for proof in proofs] == ["s1", "s3"]

    def test_audit_is_independent_of_collection_authority(self):
        """Auditing a deserialized transcript (fresh process, no shared
        authority) still verifies and extracts."""
        authority = SignatureAuthority(seed=7)
        log = transcript(
            stmt(authority, 0, ts=2), stmt(authority, 1, ts=1), seed=7
        )
        revived = TranscriptLog.from_dict(json.loads(json.dumps(log.to_dict())))
        proof = audit(revived)
        assert proof is not None and proof.kind == TAG_REGRESSION

    def test_forged_statements_cannot_frame(self):
        """Statements that fail signature verification are discarded by
        the audit itself — an adversary inserting fabricated statements
        into a transcript cannot frame an honest server."""
        from dataclasses import replace

        authority = SignatureAuthority(seed=0)
        log = transcript(stmt(authority, 0, ts=2))
        # splice in an unsigned "regression" naming the same server
        fake = replace(stmt(authority, 1, ts=1), signature=log.statements[0].signature)
        log.statements.append(fake)
        assert audit(log) is None


class TestFraudProofArtifact:
    def _proof(self, seed=0):
        authority = SignatureAuthority(seed=seed)
        log = transcript(
            stmt(authority, 0, ts=2), stmt(authority, 1, ts=1), seed=seed
        )
        return audit(log)

    def test_dict_round_trip_and_format(self):
        proof = self._proof()
        payload = proof.to_dict()
        assert payload["format"] == FRAUD_PROOF_FORMAT
        assert FraudProof.from_dict(payload).to_dict() == payload

    def test_json_is_canonical(self):
        proof = self._proof()
        assert proof.to_json() == json.dumps(
            proof.to_dict(), sort_keys=True, indent=2
        )

    def test_verifies_from_json_alone(self):
        payload = json.loads(json.dumps(self._proof(seed=5).to_dict()))
        assert verify_fraud_proof(payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p["first"].__setitem__("seq", 7),
            lambda p: p["second"]["reply"]["f"]["tag"].__setitem__("ts", 9),
            lambda p: p.__setitem__("authority_seed", 99),
            lambda p: p.__setitem__("accused", "s2"),
            lambda p: p.__setitem__("kind", DUPLICATE_SEQ),
        ],
        ids=["seq", "reply-tag", "seed", "accused", "kind"],
    )
    def test_tampering_is_caught(self, mutate):
        payload = json.loads(json.dumps(self._proof().to_dict()))
        mutate(payload)
        assert not verify_fraud_proof(payload)

    def test_consistent_pair_is_no_proof(self):
        """Two genuinely-signed but non-contradictory statements do not
        verify as a certificate: the predicate is re-run, not trusted."""
        authority = SignatureAuthority(seed=0)
        fake = FraudProof(
            accused=server(1),
            kind=TAG_REGRESSION,
            first=stmt(authority, 0, ts=1),
            second=stmt(authority, 1, ts=2),
            authority_seed=0,
        )
        assert not verify_fraud_proof(fake.to_dict())

    def test_unknown_format_rejected(self):
        with pytest.raises(SpecificationError, match="unsupported fraud proof"):
            verify_fraud_proof({"format": "repro-fraud-proof/v9"})

    def test_malformed_payload_rejected(self):
        with pytest.raises(SpecificationError, match="malformed fraud proof"):
            FraudProof.from_dict({"format": FRAUD_PROOF_FORMAT})

    def test_describe_names_the_contradiction(self):
        text = self._proof().describe()
        assert "tag-regression by s1" in text
        assert "s1#0" in text and "s1#1" in text


class TestHostileCertificates:
    """A certificate is input from whoever wants someone blamed: every
    malformed shape is a ``SpecificationError`` at the parse boundary,
    and everything that parses ends in a verdict."""

    def payload(self):
        return json.loads(json.dumps(TestFraudProofArtifact()._proof().to_dict()))

    @pytest.mark.parametrize(
        "mutate, complaint",
        [
            (lambda p: p["first"]["sig"].__setitem__("tag", "zz"), "non-hexadecimal"),
            (lambda p: p["first"]["sig"].__setitem__("tag", 5), "malformed signed statement"),
            (lambda p: p["first"].__setitem__("sig", None), "sig None is not a signature"),
            (lambda p: p["first"].__setitem__("sig", "x"), "sig 'x' is not a signature"),
            (
                lambda p: p["second"].__setitem__("sig", {"__k": "pid", "id": "s1"}),
                "not a signature",
            ),
            (lambda p: p["second"].__setitem__("sig", {"__k": "nope"}), "cannot wire-decode"),
            (lambda p: p["second"]["sig"].__setitem__("signer", "x9"), "malformed process id"),
            (lambda p: p["first"].__setitem__("seq", "0"), "seq '0' is not an int"),
            (lambda p: p["first"].__setitem__("seq", None), "seq None is not an int"),
            (lambda p: p["first"].__setitem__("seq", True), "seq True is not an int"),
            (lambda p: p["first"].__setitem__("reply", 5), "malformed signed statement"),
            (
                lambda p: p["first"]["reply"].__setitem__("f", {"bogus": 1}),
                "malformed signed statement",
            ),
            (lambda p: p.__setitem__("first", "s1#0"), "malformed"),
            (lambda p: p.__setitem__("accused", 1), "malformed fraud proof"),
        ],
    )
    def test_malformed_is_a_named_error(self, mutate, complaint):
        payload = self.payload()
        mutate(payload)
        with pytest.raises(SpecificationError, match=complaint):
            verify_fraud_proof(payload)

    @pytest.mark.parametrize("payload", [None, 5, "proof", [], [{"format": FRAUD_PROOF_FORMAT}]])
    def test_a_proof_that_is_not_an_object_is_an_unsupported_format(self, payload):
        with pytest.raises(SpecificationError, match="unsupported fraud proof"):
            verify_fraud_proof(payload)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda p: p["second"]["reply"]["f"].__setitem__("tag", 5),
            lambda p: p["second"]["reply"]["f"].__setitem__("tag", None),
            lambda p: p["first"].__setitem__("op_id", {"__k": "x"}),
            lambda p: p["first"].__setitem__("cause", [1, 2]),
            lambda p: p["first"]["sig"].__setitem__("payload", None),
        ],
    )
    def test_well_formed_nonsense_is_a_verdict(self, mutate):
        payload = self.payload()
        mutate(payload)
        assert verify_fraud_proof(payload) in (True, False)

    def test_validly_signed_nonsense_is_a_verdict_too(self):
        # Keys derive from the recorded seed, so a hostile certificate can
        # carry *valid* signatures over replies whose fields make no sense.
        authority = SignatureAuthority(seed=0)
        odd = [
            sign_statement(
                authority, server=server(1), seq=seq, client=reader(1), op_id=1,
                cause_kind="FastRead",
                reply=msg.FastReadAck(op_id=1, tag=tag, seen=frozenset(), r_counter=0),
            )
            for seq, tag in enumerate([5, None])
        ]
        proof = FraudProof(server(1), TAG_REGRESSION, odd[0], odd[1], authority_seed=0)
        assert verify_fraud_proof(json.loads(json.dumps(proof.to_dict()))) is False
        assert audit_all(transcript(*odd)) == []


class TestHostileTranscripts:
    def good(self):
        authority = SignatureAuthority(seed=0)
        return json.loads(json.dumps(transcript(stmt(authority, 0, ts=1)).to_dict()))

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("authority_seed"),
            lambda d: d.__setitem__("authority_seed", "0"),
            lambda d: d.__setitem__("statements", 5),
            lambda d: d.pop("statements"),
            lambda d: d.__setitem__("statements", {"0": d["statements"][0]}),
            lambda d: d.__setitem__("rejected", None),
        ],
    )
    def test_malformed_transcript_is_a_named_error(self, mutate):
        data = self.good()
        mutate(data)
        with pytest.raises(SpecificationError, match="malformed transcript"):
            TranscriptLog.from_dict(data)

    def test_malformed_statement_inside_is_a_named_error(self):
        data = self.good()
        data["statements"][0]["sig"]["tag"] = "not hex"
        with pytest.raises(SpecificationError, match="malformed signed statement"):
            TranscriptLog.from_dict(data)
        data["statements"] = [None]
        with pytest.raises(SpecificationError, match="malformed signed statement"):
            TranscriptLog.from_dict(data)

    @pytest.mark.parametrize("data", [None, 5, [], "repro-transcript/v1"])
    def test_a_transcript_that_is_not_an_object(self, data):
        with pytest.raises(SpecificationError, match="unsupported transcript"):
            TranscriptLog.from_dict(data)

    def test_the_untouched_transcript_still_loads_and_audits(self):
        log = TranscriptLog.from_dict(self.good())
        assert len(log) == 1 and audit_all(log) == []
