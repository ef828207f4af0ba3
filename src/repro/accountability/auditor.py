"""Transcript auditing and accountability certificates.

Given a :class:`~repro.accountability.statements.TranscriptLog`, the
auditor cross-indexes statements per server by their signed send-order
sequence number and extracts a minimal *accountability certificate* —
two verified, mutually contradictory signed replies — whenever some
server equivocated.  The certificate is self-contained: given only its
JSON, :func:`verify_fraud_proof` re-checks both signatures and the
contradiction predicate, so any third party holding the signing-domain
seed can confirm the accusation.

Two contradiction predicates are checked, both sound (an honest server
can satisfy neither, so blame always lands on a corrupted server):

* **duplicate-seq** — two different statements carrying the same
  sequence number.  Honest runtimes assign each reply a fresh number.
* **tag-regression** — a later reply (larger ``seq``) reporting a
  *smaller* current tag than a floor the same server asserted earlier.
  Every in-tree server adopts newer tags before acknowledging, so an
  honest server's reported tag is monotone in send order; showing an
  old tag after evidencing a new one is exactly the two-faced
  equivocation of the paper's Section 6 lower-bound construction.

Not every lie is provable from client-visible statements: corrupting a
``seen`` set, for instance, contradicts no signed floor (seen sets are
legitimately reset on adoption).  Callers surface an audit that finds
nothing on a known-violating run as a *detectability gap*.

Caveat mirroring :mod:`repro.crypto.signatures`: signatures are
HMAC-simulated under seed-derived secrets, so proof verification — like
every verification in this codebase — is the trusted-verifier analogue
of checking a public-key signature.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.crypto.signatures import SignatureAuthority
from repro.errors import SpecificationError
from repro.sim.ids import ProcessId
from repro.spec.histories import parse_pid

from repro.accountability.statements import (
    SignedStatement,
    TranscriptLog,
    reply_claims,
    verify_statement,
)

FRAUD_PROOF_FORMAT = "repro-fraud-proof/v2"

#: Certificate kinds, in the order predicates are tried.
DUPLICATE_SEQ = "duplicate-seq"
TAG_REGRESSION = "tag-regression"


@dataclass(frozen=True)
class FraudProof:
    """A minimal accountability certificate: two signed statements by
    ``accused`` that no honest server could both have produced."""

    accused: ProcessId
    kind: str
    first: SignedStatement
    second: SignedStatement
    authority_seed: int

    def describe(self) -> str:
        return (
            f"{self.kind} by {self.accused}: "
            f"[{self.first.describe()}] vs [{self.second.describe()}]"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": FRAUD_PROOF_FORMAT,
            "accused": str(self.accused),
            "kind": self.kind,
            "authority_seed": self.authority_seed,
            "first": self.first.to_wire(),
            "second": self.second.to_wire(),
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (sorted keys) for byte-exact
        artifact comparison across replays."""
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FraudProof":
        fmt = data.get("format") if isinstance(data, dict) else None
        if fmt != FRAUD_PROOF_FORMAT:
            raise SpecificationError(
                f"unsupported fraud proof format {reprlib.repr(fmt)} "
                f"(this build reads {FRAUD_PROOF_FORMAT})"
            )
        try:
            proof = cls(
                accused=parse_pid(data["accused"]),
                kind=data["kind"],
                first=SignedStatement.from_wire(data["first"]),
                second=SignedStatement.from_wire(data["second"]),
                authority_seed=data["authority_seed"],
            )
        except (KeyError, TypeError) as exc:
            raise SpecificationError(f"malformed fraud proof: {exc}") from None
        if type(proof.kind) is not str or type(proof.authority_seed) is not int:
            raise SpecificationError(
                "malformed fraud proof: needs a str 'kind' and an int 'authority_seed'"
            )
        return proof


def _lt(left: Any, right: Any) -> bool:
    """``left < right`` that treats cross-type timestamps (possible only
    in adversarially-assembled transcripts) as incomparable."""
    try:
        return left < right
    except (TypeError, AttributeError):
        return False


def contradiction_kind(
    first: SignedStatement, second: SignedStatement
) -> Optional[str]:
    """The contradiction predicate over two same-server statements.

    Returns the certificate kind the ordered pair establishes, or
    ``None`` when the pair is consistent with honest behaviour.
    """
    if first.server != second.server:
        return None
    if first.seq == second.seq:
        if first.statement_payload() != second.statement_payload():
            return DUPLICATE_SEQ
        return None
    if first.seq > second.seq:
        return None
    floor, _ = reply_claims(first.reply)
    _, current = reply_claims(second.reply)
    if floor is not None and current is not None and _lt(current, floor):
        return TAG_REGRESSION
    return None


def _audit_server(
    server: ProcessId,
    statements: List[SignedStatement],
    authority_seed: int,
) -> Optional[FraudProof]:
    """Extract a certificate against one server, if its statements admit
    one.  Statements are cross-indexed by signed sequence number; the
    scan keeps the strongest floor seen so far, so the extracted pair is
    the earliest provable contradiction."""
    ordered = sorted(statements, key=lambda s: s.seq)
    best_floor = None
    best_floor_stmt: Optional[SignedStatement] = None
    previous: Optional[SignedStatement] = None
    for stmt in ordered:
        if previous is not None and previous.seq == stmt.seq:
            kind = contradiction_kind(previous, stmt)
            if kind is not None:
                return FraudProof(server, kind, previous, stmt, authority_seed)
        if best_floor_stmt is not None:
            _, current = reply_claims(stmt.reply)
            if (
                current is not None
                and best_floor_stmt.seq < stmt.seq
                and _lt(current, best_floor)
            ):
                return FraudProof(
                    server, TAG_REGRESSION, best_floor_stmt, stmt, authority_seed
                )
        floor, _ = reply_claims(stmt.reply)
        if floor is not None and (best_floor is None or _lt(best_floor, floor)):
            best_floor = floor
            best_floor_stmt = stmt
        previous = stmt
    return None


def audit_all(transcript: TranscriptLog) -> List[FraudProof]:
    """Audit a transcript; one minimal certificate per provably-lying
    server, in deterministic server order.

    Every statement's signature is re-verified here (independently of
    the collection path), so a proof can never rest on anything the
    accused did not sign.
    """
    authority = SignatureAuthority(seed=transcript.authority_seed)
    proofs: List[FraudProof] = []
    grouped = transcript.by_server()
    for server in sorted(grouped):
        # Registering derives the server's key material in this signing
        # domain — the trusted-verifier analogue of looking up its
        # public key — so verification never depends on collection-time
        # authority state.
        authority.register(server)
        statements = [
            stmt for stmt in grouped[server] if verify_statement(authority, stmt)
        ]
        proof = _audit_server(server, statements, transcript.authority_seed)
        if proof is not None:
            proofs.append(proof)
    return proofs


def audit(transcript: TranscriptLog) -> Optional[FraudProof]:
    """The auditor's headline API: the first extractable certificate,
    or ``None`` when no accusation can be proven from the transcript."""
    proofs = audit_all(transcript)
    return proofs[0] if proofs else None


def verify_fraud_proof(data: Dict[str, Any]) -> bool:
    """Re-check a serialized certificate from its JSON alone.

    Rebuilds the signing authority from the recorded seed, re-verifies
    both statement signatures against the accused server, and re-runs
    the contradiction predicate.  Malformed payloads raise
    :class:`~repro.errors.SpecificationError`; a well-formed proof that
    fails any check returns ``False`` (tampered).
    """
    proof = FraudProof.from_dict(data)
    if proof.first.server != proof.accused or proof.second.server != proof.accused:
        return False
    authority = SignatureAuthority(seed=proof.authority_seed)
    authority.register(proof.accused)
    if not verify_statement(authority, proof.first):
        return False
    if not verify_statement(authority, proof.second):
        return False
    return contradiction_kind(proof.first, proof.second) == proof.kind


__all__ = [
    "DUPLICATE_SEQ",
    "FRAUD_PROOF_FORMAT",
    "TAG_REGRESSION",
    "FraudProof",
    "audit",
    "audit_all",
    "contradiction_kind",
    "verify_fraud_proof",
]
