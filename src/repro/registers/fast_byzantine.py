"""Fast SWMR atomic register under arbitrary failures — Figure 5.

Out of ``t`` faulty servers up to ``b`` may be *malicious* (Byzantine);
the paper proves fast reads and writes possible exactly when
``S > (R + 2)·t + (R + 1)·b``, equivalently ``R < (S + b)/(t + b) - 2``.

Differences from the crash protocol (Section 6.1):

* every written tag is **digitally signed** by the writer; servers and
  readers verify signatures, so a malicious server can replay an old
  signed tag but can never fabricate a newer one (unforgeability);
* a reader discards invalid acks: wrong signature, a timestamp lower
  than the tag the reader wrote back, or a ``seen`` set not containing
  the reader — each of those proves the sender malicious, because an
  honest server adopts the written-back tag and records the reader
  before replying;
* the predicate's message requirement weakens from ``S - a·t`` to
  ``S - a·t - (a-1)·b``, accounting for ``b`` liars among the acks.

Figure 5 *is* Figure 2 plus those three items, and the code says so:
the automata below subclass :mod:`repro.registers.fast_crash`'s and
override only the guards Figure 5 changes.  With ``b = 0`` the protocol
produces operation-for-operation the histories of Figure 2 (pinned by
``tests/registers/test_fast_family.py``) but keeps signature
overheads; benchmarks compare both.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.crypto.signatures import SignatureAuthority
from repro.registers import messages as msg
from repro.registers.base import Automata, ClusterConfig, ProtocolSpec
from repro.registers.fast_crash import (
    FastCrashReader,
    FastCrashServer,
    FastCrashWriter,
)
from repro.registers.timestamps import (
    INITIAL_SIGNED_TAG,
    SignedValueTag,
    sign_tag,
    verify_tag,
)
from repro.sim.ids import ProcessId, writer as writer_id

#: The only process whose signature makes a tag authentic.
WRITER = writer_id(1)


def requirement(config: ClusterConfig) -> Optional[str]:
    """Feasibility condition ``S > (R+2)t + (R+1)b``."""
    if config.W != 1:
        return "single-writer protocol (W = 1)"
    bound = (config.R + 2) * config.t + (config.R + 1) * config.b
    if config.t > 0 and config.S <= bound:
        return (
            f"fast Byzantine reads need S > (R+2)t + (R+1)b: got S={config.S}, "
            f"bound={bound} (R={config.R}, t={config.t}, b={config.b})"
        )
    return None


class _Signed:
    """What every Figure 5 automaton adds to its Figure 2 base: the
    shared signature authority and the unsigned initial tag."""

    initial_tag = INITIAL_SIGNED_TAG

    def __init__(
        self,
        pid: ProcessId,
        config: ClusterConfig,
        authority: SignatureAuthority,
    ) -> None:
        super().__init__(pid, config)
        self.authority = authority

    def _authentic(self, tag: Any) -> bool:
        return verify_tag(self.authority, WRITER, tag)


class FastByzantineServer(_Signed, FastCrashServer):
    """Server automaton of Figure 5, lines 23-35."""

    def _admit(self, payload: Any, src: ProcessId) -> bool:
        """``receivevalid``: a forged or damaged tag drops the whole
        message before the counter check ever sees it."""
        return self._authentic(payload.tag) and super()._admit(payload, src)


class FastByzantineWriter(_Signed, FastCrashWriter):
    """Writer automaton of Figure 5, lines 1-8: signs what it writes."""

    def _make_tag(self, value: Any) -> SignedValueTag:
        return sign_tag(self.authority, self.pid, self.ts, value, self.last_value)

    def _ack_matches(self, payload: msg.FastWriteAck) -> bool:
        """A valid ack echoes the exact signed tag being written: an
        honest server adopted it (nothing newer can exist — timestamps
        are created only here)."""
        return payload.tag == self._pending_tag


class FastByzantineReader(_Signed, FastCrashReader):
    """Reader automaton of Figure 5, lines 9-22."""

    def _ack_valid(self, payload: msg.FastReadAck) -> bool:
        """Figure 5 line 15's ``receivevalid`` filter.

        Any failure proves the sender malicious: honest servers reply
        with a writer-signed (or initial) tag at least as new as the one
        this read wrote back — ``max_tag``, which cannot change while
        the read is pending — with the reader recorded in ``seen``.
        """
        return (
            super()._ack_valid(payload)
            and self._authentic(payload.tag)
            and payload.tag.ts >= self.max_tag.ts
            and self.pid in payload.seen
        )

    def _predicate_b(self) -> int:
        """Line 19 asks ``(a-1)·b`` fewer messages: ``b`` may be liars."""
        return self.config.b


#: Assembled with a shared signature authority (``signed``).
SPEC = ProtocolSpec(
    name="fast-byzantine",
    summary="Fast SWMR atomic register with signed tags, arbitrary failures",
    paper_source="Figure 5, Section 6.1",
    multi_writer=False,
    read_rounds=1,
    write_rounds=1,
    fast_reads=True,
    fast_writes=True,
    atomic=True,
    requirement=requirement,
    automata=Automata(
        FastByzantineServer, FastByzantineReader, FastByzantineWriter, signed=True
    ),
)

