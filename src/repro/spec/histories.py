"""Operation histories.

A history is the externally visible behaviour of a run: the sequence of
operation invocations and responses, with their values and times.  All
correctness judgements (atomicity, regularity, linearizability) are
functions of the history alone, per Section 3 of the paper.

Beyond the core :class:`History` log, this module provides the two
pieces the fast verification pipeline is built on:

* **quiescent segmentation** (:func:`quiescent_segments`): split a pool
  of operations at instants where no operation is pending, so each
  segment can be checked independently — the product of small searches
  instead of one exponential one;
* **serialization** (:meth:`History.to_dict` / :meth:`History.from_dict`
  and the JSON wrappers), so histories can be written to disk, shared as
  golden corpora and re-judged standalone via ``repro check``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.errors import SpecificationError
from repro.sim.ids import ProcessId, READER, SERVER, WRITER

READ = "read"
WRITE = "write"

#: The register's initial value, the paper's ``⊥``.  It is not a valid
#: input to a write.
BOTTOM = "⊥"


@dataclass
class Operation:
    """One read or write operation.

    ``value`` is the written value for writes and ``None`` for reads;
    ``result`` is the returned value for reads and ``"ok"`` for writes
    once complete.  ``responded_at`` is ``None`` while the operation is
    pending (an *incomplete* operation in the paper's terminology).
    """

    op_id: int
    proc: ProcessId
    kind: str
    invoked_at: float
    value: Any = None
    result: Any = None
    responded_at: Optional[float] = None

    @property
    def complete(self) -> bool:
        return self.responded_at is not None

    @property
    def is_read(self) -> bool:
        return self.kind == READ

    @property
    def is_write(self) -> bool:
        return self.kind == WRITE

    def precedes(self, other: "Operation") -> bool:
        """Real-time precedence: my response before your invocation."""
        return self.complete and self.responded_at < other.invoked_at

    def concurrent_with(self, other: "Operation") -> bool:
        return not self.precedes(other) and not other.precedes(self)

    def describe(self) -> str:
        if self.is_write:
            span = f"[{self.invoked_at:.3f}, " + (
                f"{self.responded_at:.3f}]" if self.complete else "...)"
            )
            return f"write({self.value!r}) by {self.proc} {span}"
        span = f"[{self.invoked_at:.3f}, " + (
            f"{self.responded_at:.3f}]" if self.complete else "...)"
        )
        result = f" -> {self.result!r}" if self.complete else ""
        return f"read() by {self.proc} {span}{result}"

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record; ``proc`` travels as its ``"w1"`` string."""
        return {
            "op_id": self.op_id,
            "proc": str(self.proc),
            "kind": self.kind,
            "invoked_at": self.invoked_at,
            "value": self.value,
            "result": self.result,
            "responded_at": self.responded_at,
        }

    @classmethod
    def from_dict(
        cls, record: Dict[str, Any], pids: Optional["_Pids"] = None
    ) -> "Operation":
        """Parse one record; anything malformed is a ``SpecificationError``."""
        try:
            responded_at = record.get("responded_at")
            op = cls(
                op_id=int(record["op_id"]),
                proc=parse_pid(record["proc"]) if pids is None else pids[record["proc"]],
                kind=record["kind"],
                invoked_at=float(record["invoked_at"]),
                value=_tupled(record.get("value")),
                result=_tupled(record.get("result")),
                responded_at=None if responded_at is None else float(responded_at),
            )
            hash((op.value, op.result))  # the checkers key sets on both
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SpecificationError(
                f"malformed operation record {record!r:.80}: "
                f"{type(exc).__name__}: {exc}"
            ) from None
        return op


def _tupled(value: Any) -> Any:
    """JSON has no tuples: a loaded list was a (hashable) tuple value."""
    if isinstance(value, list):
        return tuple(_tupled(item) for item in value)
    return value


_KIND_OF_PREFIX = {"s": SERVER, "r": READER, "w": WRITER}


def parse_pid(text: str) -> ProcessId:
    """Inverse of ``str(ProcessId)``: ``"r2"`` -> ``ProcessId(reader, 2)``."""
    try:
        kind = _KIND_OF_PREFIX[text[0]]
        index = int(text[1:])
        if index < 1:
            raise ValueError
    except (KeyError, ValueError, IndexError):
        raise SpecificationError(f"malformed process id {text!r}") from None
    return ProcessId(kind, index)


class _Pids(dict):
    """Parsed process ids, memoised for one batch of records."""

    def __missing__(self, text: str) -> ProcessId:
        self[text] = pid = parse_pid(text)
        return pid


class History:
    """A mutable log of operations, recorded by the runtimes.

    Operations are stored in invocation order.  The class enforces the
    well-formedness assumptions of the model: one pending operation per
    process, responses only for pending operations.
    """

    def __init__(self) -> None:
        self.operations: List[Operation] = []
        self._by_id: Dict[int, Operation] = {}
        self._pending: Dict[ProcessId, Operation] = {}
        # A plain integer (not itertools.count) so an undo journal can
        # roll the id allocator back together with the log.
        self._next_op_id = 1

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def invoke(
        self, proc: ProcessId, kind: str, value: Any = None, at: float = 0.0
    ) -> Operation:
        if kind not in (READ, WRITE):
            raise SpecificationError(f"unknown operation kind {kind!r}")
        if kind == WRITE and value == BOTTOM:
            raise SpecificationError("⊥ is not a valid input value for a write")
        if proc in self._pending:
            raise SpecificationError(
                f"{proc} already has pending operation "
                f"{self._pending[proc].op_id}; the model allows one at a time"
            )
        op = Operation(
            op_id=self._next_op_id,
            proc=proc,
            kind=kind,
            value=value,
            invoked_at=at,
        )
        self._next_op_id += 1
        self.operations.append(op)
        self._by_id[op.op_id] = op
        self._pending[proc] = op
        return op

    def respond(self, proc: ProcessId, result: Any, at: float) -> Operation:
        op = self._pending.pop(proc, None)
        if op is None:
            raise SpecificationError(f"{proc} has no pending operation to complete")
        if at < op.invoked_at:
            raise SpecificationError(
                f"response at {at} precedes invocation at {op.invoked_at}"
            )
        op.result = result
        op.responded_at = at
        return op

    @property
    def settled(self) -> int:
        """How many operations are no longer pending."""
        return len(self.operations) - len(self._pending)

    def pending_of(self, proc: ProcessId) -> Optional[Operation]:
        return self._pending.get(proc)

    def abandon(self, proc: ProcessId) -> Optional[Operation]:
        """Give up on ``proc``'s pending operation without completing it.

        The operation stays in the log as an *incomplete* operation (the
        model's term for an op whose process may have crashed mid-call);
        ``proc`` becomes free to invoke again.  This is how a networked
        client that timed out an operation cleanly re-enters the
        one-op-per-process discipline.  Returns the abandoned operation,
        or ``None`` if nothing was pending.
        """
        return self._pending.pop(proc, None)

    # ------------------------------------------------------------------
    # undo hooks (the scripted runtime's journal; see sim.controller)

    def undo_invoke(self, op: Operation) -> None:
        """Reverse the most recent :meth:`invoke` (must be ``op``)."""
        if not self.operations or self.operations[-1] is not op:
            raise SpecificationError(
                f"cannot undo invoke of op {op.op_id}: not the latest operation"
            )
        self.operations.pop()
        del self._by_id[op.op_id]
        self._pending.pop(op.proc, None)
        self._next_op_id = op.op_id

    def undo_respond(
        self, op: Operation, result: Any, responded_at: Optional[float]
    ) -> None:
        """Reverse a :meth:`respond`, restoring the pre-response fields."""
        op.result = result
        op.responded_at = responded_at
        if responded_at is None:
            self._pending[op.proc] = op

    def get(self, op_id: int) -> Operation:
        return self._by_id[op_id]

    # ------------------------------------------------------------------
    # views

    @property
    def reads(self) -> List[Operation]:
        return [op for op in self.operations if op.is_read]

    @property
    def writes(self) -> List[Operation]:
        return [op for op in self.operations if op.is_write]

    @property
    def complete_operations(self) -> List[Operation]:
        return [op for op in self.operations if op.complete]

    @property
    def incomplete_operations(self) -> List[Operation]:
        return [op for op in self.operations if not op.complete]

    def writes_in_order(self) -> List[Operation]:
        """Writes in invocation order.

        In the single-writer model writes are totally ordered by real
        time (the writer has one operation pending at a time), so
        invocation order is *the* write order ``wr_1, wr_2, ...`` of
        Section 3.1.
        """
        return self.writes

    def single_writer(self) -> bool:
        return len({op.proc for op in self.operations if op.kind == WRITE}) <= 1

    def describe(self) -> str:
        return "\n".join(op.describe() for op in self.operations)

    # ------------------------------------------------------------------
    # serialization

    FORMAT = "repro-history/v1"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": self.FORMAT,
            "operations": [op.to_dict() for op in self.operations],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_operations(cls, operations: Sequence[Operation]) -> "History":
        """Rebuild a history from pre-timed operations.

        Unlike :meth:`invoke`/:meth:`respond`, this path accepts any
        operation ids (golden corpora must keep the ids their verdicts
        point at) but still enforces one pending operation per process.
        """
        history = cls()
        max_id = 0
        for op in operations:
            if op.kind not in (READ, WRITE):
                raise SpecificationError(f"unknown operation kind {op.kind!r}")
            if op.op_id in history._by_id:
                raise SpecificationError(f"duplicate operation id {op.op_id}")
            invoked, responded = op.invoked_at, op.responded_at
            # NaN fails every comparison (and would break the sort order
            # the checkers rely on), so test for what must hold.
            if not -math.inf < invoked < math.inf:
                raise SpecificationError(
                    f"operation {op.op_id}: invocation time {invoked} is not finite"
                )
            if responded is None:
                if op.proc in history._pending:
                    raise SpecificationError(
                        f"{op.proc} has two pending operations; the model "
                        "allows one at a time"
                    )
            elif not responded >= invoked:
                raise SpecificationError(
                    f"operation {op.op_id}: response at {responded} "
                    f"does not follow invocation at {invoked}"
                )
            history.operations.append(op)
            history._by_id[op.op_id] = op
            if responded is None:
                history._pending[op.proc] = op
            max_id = max(max_id, op.op_id)
        history._next_op_id = max_id + 1
        return history

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "History":
        if not isinstance(payload, dict):
            raise SpecificationError(f"a history is a JSON object, not {payload!r:.80}")
        fmt = payload.get("format", cls.FORMAT)
        if fmt != cls.FORMAT:
            raise SpecificationError(
                f"unsupported history format {fmt!r} (expected {cls.FORMAT!r})"
            )
        records = payload.get("operations")
        if not isinstance(records, list):
            raise SpecificationError('a history needs an "operations" list')
        pids = _Pids()  # per call: a hostile file grows no global table
        return cls.from_operations(
            [Operation.from_dict(record, pids) for record in records]
        )

    @classmethod
    def from_json(cls, text: str) -> "History":
        return cls.from_dict(json.loads(text))


def quiescent_segments(operations: Sequence[Operation]) -> List[List[Operation]]:
    """Split operations at quiescent points into independent segments.

    A cut is placed between two operations when every operation before
    the cut *responded strictly before* every operation after the cut
    was invoked — i.e. at an instant where nothing is pending.  Every
    operation in an earlier segment then real-time-precedes every
    operation in a later one, so a linearization of the whole pool is
    exactly a concatenation of per-segment linearizations (with the
    register value threaded across the cut).  Checking each segment
    independently turns one exponential search into a product of small
    ones.

    Incomplete operations never respond, so they (and everything invoked
    after them) always land in the final segment.  The input must be
    sorted by ``(invoked_at, op_id)`` — the order the checker pools use.
    """
    segments: List[List[Operation]] = []
    current: List[Operation] = []
    frontier = float("-inf")  # latest response seen so far
    for op in operations:
        if current and frontier < op.invoked_at:
            segments.append(current)
            current = []
        current.append(op)
        frontier = max(
            frontier, op.responded_at if op.complete else float("inf")
        )
    if current:
        segments.append(current)
    return segments


def write_timeline(
    writes: Sequence[Operation],
) -> Tuple[List[float], List[float], bool]:
    """Invocation times, response times (``inf`` while pending), and
    whether both are non-decreasing — what lets the single-writer
    checkers bisect the write order instead of scanning it."""
    invocations = [op.invoked_at for op in writes]
    responses = [op.responded_at if op.complete else math.inf for op in writes]
    monotone = all(a <= b for a, b in zip(invocations, invocations[1:])) and all(
        a <= b for a, b in zip(responses, responses[1:])
    )
    return invocations, responses, monotone


@dataclass(frozen=True)
class Verdict:
    """Outcome of a specification check.

    ``ok`` is True when the property holds.  On violation, ``reason``
    explains which condition failed and ``culprits`` lists the operation
    ids involved, so examples and tests can point at the precise reads.
    """

    ok: bool
    property_name: str
    reason: str = ""
    culprits: Tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        status = "OK" if self.ok else "VIOLATION"
        text = f"{self.property_name}: {status}"
        if not self.ok:
            text += f" — {self.reason}"
            if self.culprits:
                text += f" (operations {list(self.culprits)})"
        return text


def value_written_by(history: History, k: int) -> Any:
    """``val_k`` of Section 3.1: value of the k-th write, ``⊥`` for k=0."""
    if k == 0:
        return BOTTOM
    writes = history.writes_in_order()
    if k < 1 or k > len(writes):
        raise SpecificationError(f"history has no {k}-th write")
    return writes[k - 1].value
