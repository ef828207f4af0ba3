"""Signed reply statements and per-run transcripts.

The accountability layer wraps every server reply in a *statement*: a
canonical record of who said what to whom, in which send-order position,
signed with the server's own key.  Statements are a transport-level
overlay — the register automata are unchanged; the runtime (simulated or
socket) signs on the server's behalf at send time and clients retain
only statements whose signature verifies.

A statement binds four things (the canonical tuple signed by the
server):

* the **server** identity and its per-server **sequence number** —
  the send-order position of this reply among everything the server
  ever sent to clients, which gives the auditor the
  (server, round/timestamp) context to cross-index;
* the **request echo** — the client, operation id and request kind the
  reply answers;
* the **reply body** — the full wire encoding of the reply message.

Because a corrupted server controls its own signing key, corrupted
replies carry *valid* signatures over the corrupted body (lies are
signed); what a Byzantine server cannot do is produce a valid statement
for another server (forgeries are not).  The auditor in
:mod:`repro.accountability.auditor` exploits exactly this asymmetry.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.signatures import (
    CanonicalPayload,
    SignatureAuthority,
    SignedPayload,
    _canonical,
)
from repro.errors import ProtocolError, SpecificationError
from repro.registers import messages as msg
from repro.registers.messages import decode_message
from repro.sim.ids import ProcessId
from repro.spec.histories import parse_pid

#: Domain-separation prefix of every signed statement tuple; bump on
#: incompatible changes to the statement shape.
STATEMENT_DOMAIN = "repro-statement/v1"


@dataclass(frozen=True)
class SignedStatement:
    """One server reply, wrapped in the server's signature.

    ``seq`` is the per-server send-order index (0-based) over all
    replies the server addressed to clients; ``cause_kind`` names the
    message type the server was processing when it emitted the reply
    (the request echo — for gossip-triggered replies this is the gossip
    message, which is still the causally-preceding inbound message).
    """

    server: ProcessId
    seq: int
    client: ProcessId
    op_id: Optional[int]
    cause_kind: str
    reply: Any  # a WireMessage instance
    signature: SignedPayload

    def statement_payload(self) -> Tuple:
        """The tuple the server signs, built from this statement's own
        fields (never from the signature's claimed payload).  This is
        the *specification* of a statement — what transcripts, fraud
        proofs and the duplicate-seq comparison read; signing and
        verifying go through :meth:`signed_payload`, which writes the
        same bytes without building it."""
        return self.signed_payload().expand()

    def signed_payload(self) -> "StatementPayload":
        """What :func:`verify_statement` checks the tag against: this
        statement's own fields as a self-encoding payload, made on first
        use and kept (it remembers its bytes)."""
        payload = self.__dict__.get("_payload")
        if payload is None:
            payload = self.__dict__["_payload"] = StatementPayload(
                self.server, self.seq, self.client, self.op_id, self.cause_kind, self.reply
            )
        return payload

    @classmethod
    def from_envelope(
        cls,
        server: ProcessId,
        client: ProcessId,
        reply: Any,
        seq: int,
        cause_kind: str,
        tag: bytes,
    ) -> "SignedStatement":
        """The statement a reply frame ``server -> client`` implies, plus
        the three things it cannot imply: the send-order ``seq``, the
        request echo and the server's HMAC ``tag``.  The signature's
        payload stands for the tuple those fields imply, so
        :func:`verify_statement` checks ``tag`` against what was
        actually received."""
        op_id = getattr(reply, "op_id", None)
        payload = StatementPayload(server, seq, client, op_id, cause_kind, reply)
        return _statement(payload, SignedPayload(server, payload, tag))

    def describe(self) -> str:
        return (
            f"{self.server}#{self.seq} -> {self.client} "
            f"{type(self.reply).__name__} (answering {self.cause_kind})"
        )

    # ------------------------------------------------------------------
    # JSON round-trip (transcripts and fraud proofs): the fields and the
    # tag; the signed payload is what the fields imply, so it is not sent

    def to_wire(self) -> Dict[str, Any]:
        return {
            "server": str(self.server),
            "seq": self.seq,
            "client": str(self.client),
            "op_id": self.op_id,
            "cause": self.cause_kind,
            "reply": self.reply.to_wire(),
            "tag": self.signature.tag.hex(),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "SignedStatement":
        """Parse a :meth:`to_wire` dict from an untrusted source into the
        form :meth:`from_envelope` builds.  Shape is settled here — a
        statement that parses has an ``int`` seq, an ``int`` or ``None``
        op id, a ``str`` cause and a ``bytes`` tag — so that verifying
        and auditing it end in a verdict, whatever it claims."""
        try:
            server, seq, op_id, cause = (
                parse_pid(data["server"]), data["seq"], data["op_id"], data["cause"]
            )
            payload = StatementPayload(
                server, seq, parse_pid(data["client"]), op_id, cause,
                decode_message(data["reply"]),
            )
            tag = bytes.fromhex(data["tag"])
        except (KeyError, TypeError, ValueError, AttributeError, ProtocolError) as exc:
            raise SpecificationError(f"malformed signed statement: {exc}") from None
        if type(seq) is not int:
            raise SpecificationError(
                f"malformed signed statement: seq {reprlib.repr(seq)} is not an int"
            )
        if (op_id is not None and type(op_id) is not int) or type(cause) is not str:
            raise SpecificationError(
                f"malformed signed statement: op_id {reprlib.repr(op_id)} is not an int "
                f"or None, or cause {reprlib.repr(cause)} is not a str"
            )
        return _statement(payload, SignedPayload(server, payload, tag))


_STATEMENT_BYTES = b"t7(" + _canonical(STATEMENT_DOMAIN) + b",%b,%b,%b,%b,%b,%b)"


class StatementPayload(CanonicalPayload):
    """The tuple a server signs, held as the six fields that vary.

    The signature of every statement in this process carries one of
    these, whether the statement was signed here, read off a socket or
    parsed from JSON; it compares equal to the tuple it stands for.
    """

    __slots__ = ("fields", "_bytes")

    def __init__(
        self,
        server: ProcessId,
        seq: int,
        client: ProcessId,
        op_id: Optional[int],
        cause_kind: str,
        reply: Any,
    ) -> None:
        self.fields = (server, seq, client, op_id, cause_kind, reply)
        self._bytes: Optional[bytes] = None

    def expand(self) -> Tuple:
        """The specification: what is signed is ``_canonical`` of this."""
        *plain, reply = self.fields
        return (STATEMENT_DOMAIN, *plain, reply.to_wire())

    def canonical_bytes(self) -> bytes:
        """``_canonical(self.expand())`` written directly (and kept): the
        plain elements by the general encoder, the reply by its class's
        compiled writer instead of through ``to_wire()``."""
        data = self._bytes
        if data is None:
            server, seq, client, op_id, cause_kind, reply = self.fields
            data = self._bytes = _STATEMENT_BYTES % (
                _canonical(server),
                _canonical(seq),
                _canonical(client),
                _canonical(op_id),
                _canonical(cause_kind),
                reply.canonical_wire(),
            )
        return data

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, StatementPayload):
            other = other.expand()
        return self.expand() == other

    __hash__ = None  # type: ignore[assignment]  # as the tuple, which holds a dict

    def __repr__(self) -> str:
        return repr(self.expand())


def _statement(payload: StatementPayload, signature: SignedPayload) -> SignedStatement:
    """The statement whose fields ``payload`` holds, under ``signature``;
    it remembers ``payload`` as its own (see ``signed_payload``)."""
    stmt = SignedStatement(*payload.fields, signature)
    stmt.__dict__["_payload"] = payload
    return stmt


def sign_statement(
    authority: SignatureAuthority,
    server: ProcessId,
    seq: int,
    client: ProcessId,
    op_id: Optional[int],
    cause_kind: str,
    reply: Any,
) -> SignedStatement:
    """Sign a reply on behalf of ``server`` (registering it if needed)."""
    authority.register(server)
    payload = StatementPayload(server, seq, client, op_id, cause_kind, reply)
    return _statement(payload, authority.sign(server, payload))


def verify_statement(authority: SignatureAuthority, stmt: SignedStatement) -> bool:
    """True iff the statement's signature is the named server's, over the
    statement bytes recomputed from the statement's own fields (the
    embedded signature's claimed payload is deliberately ignored)."""
    if stmt.signature.signer != stmt.server:
        return False
    candidate = SignedPayload(
        signer=stmt.server,
        payload=stmt.signed_payload(),
        tag=stmt.signature.tag,
    )
    return authority.verify(candidate)


# ----------------------------------------------------------------------
# claims: what a reply asserts about the server's register state


def reply_claims(reply: Any) -> Tuple[Optional[Any], Optional[Any]]:
    """Extract the ``(floor, current)`` timestamp claims of one reply.

    ``floor`` is a lower bound the server asserts on its tag *from this
    reply onward* (adopt-before-ack protocols make every reported tag a
    floor; a ``StoreAck`` echoing timestamp ``X`` asserts the server's
    tag is now at least ``X`` even when it did not adopt).  ``current``
    is the exact tag the server reports holding at send time.  Both are
    ``None`` for reply kinds carrying no timestamp claim.

    Soundness note: every in-tree server automaton adopts a newer tag
    *before* constructing its ack, so for honest servers
    ``floor <= tag_at_send`` and ``current == tag_at_send`` hold, and
    the server's tag is monotone in send order — which is exactly the
    invariant the auditor's contradiction predicate checks.
    """
    if isinstance(reply, (msg.FastReadAck, msg.FastWriteAck, msg.QueryReply)):
        # getattr: a parsed reply's fields hold whatever their signer chose
        ts = getattr(reply.tag, "ts", None)
        return ts, ts
    if isinstance(reply, msg.MaxMinReadAck):
        # The ack tag is the gossip-pool max, which the server adopts
        # before answering — a sound floor.  It is *not* the current
        # tag: the pool holds contributions gossiped earlier, and the
        # server's own tag may have advanced past the pool max (e.g. a
        # Store applied after its contribution), so an honest ack can
        # legitimately trail the server's latest StoreAck.
        return getattr(reply.tag, "ts", None), None
    if isinstance(reply, msg.StoreAck):
        return reply.ts, None
    return None, None


# ----------------------------------------------------------------------
# transcripts


class TranscriptLog:
    """Client-side collection of verified statements for one run.

    Only statements whose signature verifies are retained — blame can
    then never rest on anything a server did not actually say.  Invalid
    statements are counted in ``rejected`` (over sockets a garbage or
    forged statement is dropped, not fatal).
    """

    FORMAT = "repro-transcript/v2"

    def __init__(self, authority_seed: int = 0) -> None:
        self.authority_seed = authority_seed
        self.statements: List[SignedStatement] = []
        self.rejected = 0

    def record(self, stmt: SignedStatement, authority: SignatureAuthority) -> bool:
        """Verify and retain one statement; False (and counted) if bad."""
        if verify_statement(authority, stmt):
            self.statements.append(stmt)
            return True
        self.rejected += 1
        return False

    def merge(self, other: "TranscriptLog") -> None:
        """Fold another shard's transcript into this one."""
        if other.authority_seed != self.authority_seed:
            raise SpecificationError(
                "cannot merge transcripts from different signing domains "
                f"(seed {self.authority_seed} vs {other.authority_seed})"
            )
        self.statements.extend(other.statements)
        self.rejected += other.rejected

    def by_server(self) -> Dict[ProcessId, List[SignedStatement]]:
        grouped: Dict[ProcessId, List[SignedStatement]] = {}
        for stmt in self.statements:
            grouped.setdefault(stmt.server, []).append(stmt)
        return grouped

    def __len__(self) -> int:
        return len(self.statements)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": self.FORMAT,
            "authority_seed": self.authority_seed,
            "rejected": self.rejected,
            "statements": [stmt.to_wire() for stmt in self.statements],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TranscriptLog":
        fmt = data.get("format") if isinstance(data, dict) else None
        if fmt != cls.FORMAT:
            raise SpecificationError(
                f"unsupported transcript format {reprlib.repr(fmt)} "
                f"(this build reads {cls.FORMAT})"
            )
        seed, items = data.get("authority_seed"), data.get("statements")
        rejected = data.get("rejected", 0)
        if type(seed) is not int or type(rejected) is not int or not isinstance(items, list):
            raise SpecificationError(
                "malformed transcript: needs an int 'authority_seed', an int "
                "'rejected' and a list of 'statements' "
                f"(got {reprlib.repr(seed)}, {reprlib.repr(rejected)} "
                f"and a {type(items).__name__})"
            )
        log = cls(authority_seed=seed)
        log.rejected = rejected
        log.statements = [SignedStatement.from_wire(item) for item in items]
        return log


__all__ = [
    "STATEMENT_DOMAIN",
    "SignedStatement",
    "TranscriptLog",
    "reply_claims",
    "sign_statement",
    "verify_statement",
]
