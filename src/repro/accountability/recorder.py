"""Runtime hooks that sign and collect statements in the simulators.

:class:`StatementRecorder` is the transport-level accountability overlay
for the in-process runtimes.  Both :class:`~repro.sim.runtime.Simulation`
and :class:`~repro.sim.controller.ScriptedExecution` call three hooks
when a recorder is attached (the attribute defaults to ``None``, so the
hot paths pay one identity check when accountability is off):

* ``on_deliver(env)`` — before dispatching any envelope.  A delivery to
  a server sets the request-echo context for replies the server emits
  during that step; a delivery of a pending reply to a client finalizes
  its statement into the transcript (client-side signature check
  included).
* ``on_emit(env)`` — when a server→client reply enters the network.
  The recorder assigns the server's next send-order sequence number and
  signs the statement with the server's key.  Sequence numbers are
  allocated at *send* time, never delivery time: schedule-reordered
  deliveries of honest replies must not look like equivocation.
* ``on_substitute(old, new)`` — when the scripted adversary corrupts a
  held reply.  The pending statement is re-signed over the corrupted
  body with the *same* sequence number and the corrupted server's *real*
  key: a Byzantine server signs its lies (it controls its key); what it
  cannot do is forge another server's statement.

Replies dropped or left in transit forever simply never leave the
pending table — clients only ever retain statements for replies they
actually received.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.crypto.signatures import SignatureAuthority
from repro.registers.messages import SERVER_REPLIES
from repro.sim.messages import Envelope

from repro.accountability.statements import (
    SignedStatement,
    TranscriptLog,
    sign_statement,
)


class StatementRecorder:
    """Signs server replies at send time; collects what clients receive."""

    def __init__(
        self,
        authority: Optional[SignatureAuthority] = None,
        authority_seed: int = 0,
    ) -> None:
        """``authority`` reuses an existing signing domain (its own seed
        wins, so transcripts always verify against the keys that
        actually signed); otherwise a dedicated transport authority is
        derived from ``authority_seed``."""
        self.authority = (
            authority if authority is not None else SignatureAuthority(authority_seed)
        )
        self.transcript = TranscriptLog(authority_seed=self.authority.seed)
        self._seq: Dict = {}
        self._pending: Dict[int, SignedStatement] = {}
        self._cause_kind = ""

    # ------------------------------------------------------------------
    # runtime hooks

    def on_emit(self, env: Envelope) -> None:
        src, dst = env.src, env.dst
        if not (src.is_server and dst.is_client):
            return
        if not isinstance(env.payload, SERVER_REPLIES):
            return
        seq = self._seq.get(src, 0)
        self._seq[src] = seq + 1
        self._pending[env.env_id] = sign_statement(
            self.authority,
            server=src,
            seq=seq,
            client=dst,
            op_id=env.op_id,
            cause_kind=self._cause_kind,
            reply=env.payload,
        )

    def on_substitute(self, old: Envelope, new: Envelope) -> None:
        original = self._pending.pop(old.env_id, None)
        if original is None:
            return
        self._pending[new.env_id] = sign_statement(
            self.authority,
            server=original.server,
            seq=original.seq,
            client=original.client,
            op_id=new.op_id if new.op_id is not None else original.op_id,
            cause_kind=original.cause_kind,
            reply=new.payload,
        )

    def on_deliver(self, env: Envelope) -> None:
        if env.dst.is_client:
            statement = self._pending.pop(env.env_id, None)
            if statement is not None:
                self.transcript.record(statement, self.authority)
        else:
            self._cause_kind = type(env.payload).__name__


__all__ = ["StatementRecorder"]
