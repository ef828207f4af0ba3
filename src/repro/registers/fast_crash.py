"""Fast SWMR atomic register for the crash model — Figure 2 of the paper.

Both reads and writes complete in a single communication round-trip,
which the paper proves possible exactly when ``R < S/t - 2`` (i.e.
``S > (R + 2) t``).

How it works (Section 4):

* **Write**: the writer increments its timestamp, multicasts the tagged
  value, and returns after ``S - t`` acknowledgements — it never needs to
  discover timestamps because it is the only process creating them.
* **Read**: the reader multicasts its last known ``maxTS`` tag (an
  in-band write-back) together with a per-reader read counter.  A server
  receiving any request adopts the carried tag if newer, resets or
  extends its ``seen`` set — the set of clients it has answered with the
  current timestamp — and replies with ``(tag, seen, rCounter)``.  The
  reader collects ``S - t`` acks, computes ``maxTS`` and applies the
  predicate of :mod:`repro.registers.predicates`: if some ``a`` processes
  are contained in the ``seen`` sets of at least ``S - a·t`` maxTS acks,
  the value of ``maxTS`` is safe to return; otherwise the reader returns
  the *previous* value (``maxTS - 1``), whose write must already have
  completed.

The ``counter`` array at servers ensures a server never answers a stale
read message of a reader after answering a newer one (used in case <5>2
of the Lemma 4 proof).

These three automata are the single implementation of the fast-register
family.  Each load-bearing step of the pseudo-code is one small named
method — a *guard* — so that Figure 5
(:mod:`repro.registers.fast_byzantine`) overrides only what it adds and
every row of :data:`repro.registers.ablations.FLAWS` names one guard and
the stand-in that replaces it.  Guards are methods, never per-instance
state: the explorer fingerprints every automaton attribute.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional

from repro.registers import messages as msg
from repro.registers.base import (
    AckSet,
    Automata,
    ClusterConfig,
    ProtocolSpec,
    RegisterClient,
    VectorProfile,
)
from repro.registers.predicates import seen_predicate
from repro.registers.timestamps import INITIAL_TAG, ValueTag
from repro.sim.ids import ProcessId, client_index
from repro.sim.process import Context, Process
from repro.spec.histories import BOTTOM, Operation

def requirement(config: ClusterConfig) -> Optional[str]:
    """Feasibility condition ``R < S/t - 2``; ``None`` when satisfied.

    With ``t = 0`` every run has all servers correct and the condition
    is vacuous.  ``b`` must be zero: Byzantine servers need Figure 5.
    """
    if config.b != 0:
        return "the crash-model protocol tolerates no Byzantine servers (b = 0)"
    if config.W != 1:
        return "single-writer protocol (W = 1); Section 7 proves MWMR impossible"
    if config.t > 0 and config.S <= (config.R + 2) * config.t:
        return (
            f"fast reads need R < S/t - 2: got R={config.R}, "
            f"S={config.S}, t={config.t} (requires S > {(config.R + 2) * config.t})"
        )
    return None


class FastCrashServer(Process):
    """Server automaton of Figure 2, lines 23-35."""

    initial_tag: Any = INITIAL_TAG

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid)
        self.config = config
        self.tag = self.initial_tag
        self.seen: set = set()
        # counter[i]: newest read counter seen from client index i
        # (0 = the writer, i = reader r_i), Figure 2 line 25.
        self.counter: Dict[int, int] = {}

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        # Exact-type dispatch: the request payloads are final frozen
        # dataclasses, and this handler runs once per request message.
        kind = type(payload)
        if kind is msg.FastRead:
            ack_type = msg.FastReadAck
        elif kind is msg.FastWrite:
            ack_type = msg.FastWriteAck
        else:
            return
        if not self._admit(payload, src):
            return
        self._absorb(payload.tag, src)
        ctx.send(
            src,
            ack_type(
                op_id=payload.op_id,
                tag=self.tag,
                seen=frozenset(self.seen),
                r_counter=payload.r_counter,
            ),
        )

    def _admit(self, payload: Any, src: ProcessId) -> bool:
        """Line 26: refuse a message older than one this client already
        had answered; record the counter of an admitted one."""
        cidx = client_index(src)
        if payload.r_counter < self.counter.get(cidx, 0):
            return False  # stale message of an earlier read by this client
        self.counter[cidx] = payload.r_counter
        return True

    def _absorb(self, tag: Any, src: ProcessId) -> None:
        """Lines 27-30: adopt a newer tag and restart ``seen`` from the
        sender, or add the sender to the current tag's witnesses."""
        if tag.ts > self.tag.ts:
            self.tag = tag
            self.seen = {src}
        else:
            self.seen.add(src)

    def describe_state(self) -> str:
        seen = ",".join(sorted(str(p) for p in self.seen))
        return f"{type(self).__name__}({self.pid}, tag={self.tag}, seen={{{seen}}})"


class FastCrashWriter(RegisterClient):
    """Writer automaton of Figure 2, lines 1-8."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.ts = 1  # next timestamp to write
        self.last_value: Any = BOTTOM
        self._pending_tag: Any = None
        self._acks: Optional[AckSet] = None

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        tag = self._make_tag(op.value)
        self._pending_tag = tag
        self._acks = AckSet(self._write_quorum())
        request = msg.FastWrite(op_id=op.op_id, tag=tag, r_counter=0)
        ctx.multicast(self.config.server_ids, request)

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if not self._matches_current(payload):
            return
        if not isinstance(payload, msg.FastWriteAck):
            return
        assert self._pending_tag is not None and self._acks is not None
        if not self._ack_matches(payload):
            return
        if self._acks.add(src, payload):
            self.ts += 1
            self.last_value = self._pending_tag.value
            self._pending_tag = None
            ctx.complete("ok")

    def _make_tag(self, value: Any) -> Any:
        """Line 3: the next timestamp with the value and its predecessor."""
        return ValueTag(ts=self.ts, value=value, prev_value=self.last_value)

    def _write_quorum(self) -> int:
        """Line 6: a write returns after ``S - t`` acks."""
        return self.config.quorum

    def _ack_matches(self, payload: msg.FastWriteAck) -> bool:
        """An ack counts when it carries the timestamp being written
        (no other can occur with a single writer)."""
        return payload.tag.ts == self._pending_tag.ts


class FastCrashReader(RegisterClient):
    """Reader automaton of Figure 2, lines 9-22."""

    initial_tag: Any = INITIAL_TAG

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self.max_tag = self.initial_tag
        self.r_counter = 0
        self._acks: Optional[AckSet] = None

    def on_invoke(self, op: Operation, ctx: Context) -> None:
        self.r_counter += 1
        self._acks = AckSet(self.config.quorum)
        request = msg.FastRead(
            op_id=op.op_id, tag=self.max_tag, r_counter=self.r_counter
        )
        ctx.multicast(self.config.server_ids, request)

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if not self._matches_current(payload):
            return
        if not isinstance(payload, msg.FastReadAck):
            return
        if not self._ack_valid(payload):
            return
        assert self._acks is not None
        if self._acks.add(src, payload):
            self._decide(ctx)

    def _ack_valid(self, payload: msg.FastReadAck) -> bool:
        """Line 15: the ack answers this read, not an earlier one."""
        return payload.r_counter == self.r_counter

    def _decide(self, ctx: Context) -> None:
        """Lines 16-22: pick maxTS; return its value if safe, else the
        previous one (whose write must already have completed)."""
        assert self._acks is not None
        acks = self._acks.payloads()
        max_ts = max(ack.tag.ts for ack in acks)
        max_acks = [ack for ack in acks if ack.tag.ts == max_ts]
        self.max_tag = max_acks[0].tag
        if self._safe([ack.seen for ack in max_acks]):
            ctx.complete(self.max_tag.value)
        else:
            ctx.complete(self.max_tag.prev_value)

    def _safe(self, seen_sets: List[FrozenSet[ProcessId]]) -> bool:
        """Line 19: the predicate over the maxTS acks' ``seen`` sets."""
        return seen_predicate(
            seen_sets,
            S=self.config.S,
            t=self.config.t,
            R=self.config.R,
            b=self._predicate_b(),
        )

    def _predicate_b(self) -> int:
        """The predicate's ``(a-1)·b`` slack: none in the crash model."""
        return 0


#: ``build(config, enforce=False)`` skips the feasibility check — used
#: deliberately by the Section 5 lower-bound construction, which runs
#: this very protocol *beyond* its threshold to exhibit the violation.
SPEC = ProtocolSpec(
    name="fast-crash",
    summary="Fast SWMR atomic register, crash model (the paper's Figure 2)",
    paper_source="Figure 2, Section 4",
    multi_writer=False,
    read_rounds=1,
    write_rounds=1,
    fast_reads=True,
    fast_writes=True,
    atomic=True,
    requirement=requirement,
    automata=Automata(FastCrashServer, FastCrashReader, FastCrashWriter),
    # the read value is gated by the ``seen``-predicate
    vector=VectorProfile(predicate_reads=True),
)

