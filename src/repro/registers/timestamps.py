"""Timestamps and value tags.

Following Section 4's "trivial modification", a written value travels as
a tag ``(ts, value, prev_value)``: the timestamp, the value written at
that timestamp, and the value of the immediately preceding write.  A read
that decides ``maxTS`` returns ``value``; a read that decides
``maxTS - 1`` returns ``prev_value``.

For multi-writer protocols (Section 7) the timestamp is a lexicographic
``(num, writer-index)`` pair; the tag machinery is generic over any
totally ordered timestamp type.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering
from typing import Any, Optional, Tuple, Union

from repro.crypto.signatures import SignatureAuthority, SignedPayload
from repro.errors import ProtocolError
from repro.sim.ids import ProcessId
from repro.spec.histories import BOTTOM


@total_ordering
@dataclass(frozen=True)
class MWTimestamp:
    """Multi-writer timestamp: ``(num, wid)`` ordered lexicographically.

    ``wid`` (the writer's index) breaks ties between concurrent writers,
    the standard construction of [Lynch & Shvartsman 1997].
    """

    num: int
    wid: int

    def __lt__(self, other: Union[int, "MWTimestamp"]) -> bool:
        if isinstance(other, MWTimestamp):
            return (self.num, self.wid) < (other.num, other.wid)
        # A tag's timestamp slot admits both kinds, so a peer can put a
        # single-writer ``n`` next to pairs: it ranks as ``(n, -inf)``.
        return self.num < other

    def next_for(self, wid: int) -> "MWTimestamp":
        return MWTimestamp(self.num + 1, wid)

    def __str__(self) -> str:
        return f"({self.num},{self.wid})"


@total_ordering
@dataclass(frozen=True)
class ValueTag:
    """A timestamped value with its predecessor value.

    Tags are ordered by timestamp only; value fields ride along.  The
    single-writer protocols use integer timestamps (0 = initial), the
    MWMR protocols use :class:`MWTimestamp`.
    """

    ts: Union[int, MWTimestamp]
    value: Any = BOTTOM
    prev_value: Any = BOTTOM

    def __lt__(self, other: "ValueTag") -> bool:
        return self.ts < other.ts

    def __str__(self) -> str:
        return f"tag(ts={self.ts}, v={self.value!r})"


#: Initial tag of single-writer registers: ``ts = 0`` holding ``⊥``.
INITIAL_TAG = ValueTag(0, BOTTOM, BOTTOM)

#: Initial tag for MWMR registers.
INITIAL_MW_TAG = ValueTag(MWTimestamp(0, 0), BOTTOM, BOTTOM)


@total_ordering
@dataclass(frozen=True)
class SignedValueTag:
    """A value tag signed by the writer (Figure 5's ``ts_σw``).

    The initial tag (``ts = 0``) is, per Section 6.1, *not* signed: it is
    represented with ``signed = None`` and validates only if its content
    is exactly the initial content.  All later tags carry a
    :class:`~repro.crypto.signatures.SignedPayload` over
    ``(ts, value, prev_value)``.
    """

    ts: int
    value: Any = BOTTOM
    prev_value: Any = BOTTOM
    signed: Optional[SignedPayload] = None

    def payload_tuple(self) -> Tuple:
        return (self.ts, self.value, self.prev_value)

    def __lt__(self, other: Union[ValueTag, "SignedValueTag"]) -> bool:
        return self.ts < other.ts

    def __str__(self) -> str:
        suffix = "σw" if self.signed is not None else "unsigned"
        return f"stag(ts={self.ts}, v={self.value!r}, {suffix})"


#: Initial signed tag: timestamp 0, unsigned.
INITIAL_SIGNED_TAG = SignedValueTag(0, BOTTOM, BOTTOM, signed=None)


def sign_tag(
    authority: SignatureAuthority,
    writer: ProcessId,
    ts: int,
    value: Any,
    prev_value: Any,
) -> SignedValueTag:
    """Produce a writer-signed tag; only the honest writer path calls it."""
    if ts < 1:
        raise ProtocolError("signed tags start at timestamp 1")
    signed = authority.sign(writer, (ts, value, prev_value))
    return SignedValueTag(ts=ts, value=value, prev_value=prev_value, signed=signed)


def verify_tag(
    authority: SignatureAuthority, writer: ProcessId, tag: Any
) -> bool:
    """Authenticate a tag against the expected writer.

    Accepts exactly: the unsigned initial tag, or a tag whose signature
    verifies, was produced by ``writer``, and whose fields match the
    signed payload (a Byzantine server cannot re-label a signed payload
    with different fields).
    """
    if not isinstance(tag, SignedValueTag):
        return False
    if tag.signed is None:
        return tag == INITIAL_SIGNED_TAG
    if tag.signed.signer != writer:
        return False
    if tag.signed.payload != tag.payload_tuple():
        return False
    return authority.verify(tag.signed)
