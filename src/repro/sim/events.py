"""Virtual-time event queue — the slot-based fast path.

A minimal, deterministic discrete-event core.  The heap holds plain
``(time, seq, kind, payload)`` tuples, ordered by ``(time, seq)`` where
``seq`` is an insertion counter that breaks ties, so two runs with
identical inputs pop events in identical order.  Tuples compare at C
speed and need no per-event closure, which is what makes large seed
sweeps tractable (the ledger's ``sweep-scalar`` workload times it).

Event *kinds* index a small jump table of handlers:

* ``CALL`` — the payload is an :class:`Event` record wrapping a Python
  callable.  This is the legacy/general-purpose slot used by workload
  drivers, fault plans and tests.
* ``DELIVER`` — the payload is a message envelope; the network transport
  registers the delivery handler once via :meth:`EventQueue.set_handler`
  and no per-message closure is ever allocated.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import EventBudgetExceeded

#: Event kinds.  They index :attr:`EventQueue._handlers`; keep them
#: small consecutive integers.
CALL = 0
DELIVER = 1

_MAX_KINDS = 4

Entry = Tuple[float, int, int, Any]


class Event:
    """Handle for a scheduled ``CALL``; lets the scheduler cancel it.

    Only ``CALL`` events have handles — fast-path kinds (``DELIVER``)
    are fire-and-forget tuples.  ``time``/``seq`` mirror the heap entry;
    ``action`` and ``tag`` do not participate in ordering.
    """

    __slots__ = ("time", "seq", "action", "tag", "cancelled")

    def __init__(
        self,
        time: float,
        seq: int,
        action: Callable[[], None],
        tag: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.seq = seq
        self.action = action
        self.tag = tag
        self.cancelled = cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}, tag={self.tag!r}{state})"


class EventQueue:
    """Priority queue of schedule entries with stable FIFO tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Entry] = []
        self._counter = itertools.count()
        self._live = 0
        self._handlers: List[Optional[Callable[[Any], None]]] = [None] * _MAX_KINDS

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    def set_handler(self, kind: int, handler: Callable[[Any], None]) -> None:
        """Install the jump-table handler for a fast-path event kind."""
        if not 0 < kind < _MAX_KINDS:
            raise ValueError(f"kind must be in [1, {_MAX_KINDS}), got {kind}")
        self._handlers[kind] = handler

    def schedule(self, time: float, action: Callable[[], None], tag: str = "") -> Event:
        """Insert a ``CALL`` event; returns it so the caller may cancel it."""
        if time < 0:
            raise ValueError(f"cannot schedule an event at negative time {time}")
        event = Event(time, next(self._counter), action, tag)
        heapq.heappush(self._heap, (time, event.seq, CALL, event))
        self._live += 1
        return event

    def push(self, time: float, kind: int, payload: Any) -> None:
        """Fast-path insertion: no handle, no closure, no cancellation.

        The caller is responsible for ``time >= 0`` (the network computes
        ``now + positive delay``, which satisfies it by construction).
        """
        heapq.heappush(self._heap, (time, next(self._counter), kind, payload))
        self._live += 1

    def cancel(self, event: Event) -> None:
        """Mark a ``CALL`` event cancelled; it will be skipped when popped."""
        if not event.cancelled:
            event.cancelled = True
            self._live -= 1

    def pop_entry(self) -> Optional[Entry]:
        """Remove and return the earliest live entry tuple, or None."""
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            if entry[2] == CALL and entry[3].cancelled:
                continue
            self._live -= 1
            return entry
        return None

    def dispatch_entry(self, entry: Entry) -> None:
        """Run one popped entry through the jump table."""
        kind = entry[2]
        if kind == CALL:
            entry[3].action()
            return
        handler = self._handlers[kind]
        if handler is None:
            raise RuntimeError(f"no handler installed for event kind {kind}")
        handler(entry[3])


class VirtualClock:
    """Monotonic virtual clock advanced only by the runtime."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def advance_to(self, time: float) -> None:
        if time < self._now:
            raise ValueError(
                f"clock may not move backwards: at {self._now}, asked for {time}"
            )
        self._now = time


def run_until_quiet(
    queue: EventQueue,
    clock: VirtualClock,
    max_events: int = 1_000_000,
    deadline: Optional[float] = None,
) -> int:
    """Pop-and-run events until the queue empties, a deadline passes, or
    the event budget is exhausted.  Returns the number of events run.

    The budget guards against protocol bugs that flood the network; a
    correct register workload quiesces once all operations complete.

    This is the engine's hot loop: it works on the raw heap and the jump
    table directly, avoiding two method calls per event compared to
    :meth:`EventQueue.pop_entry` and :meth:`EventQueue.dispatch_entry`.
    """
    heap = queue._heap
    handlers = queue._handlers
    heappop = heapq.heappop
    executed = 0
    while heap:
        if deadline is not None and heap[0][0] > deadline:
            break
        entry = heappop(heap)
        time = entry[0]
        kind = entry[2]
        payload = entry[3]
        if kind == CALL:
            if payload.cancelled:
                continue
            queue._live -= 1
            if time < clock._now:
                raise ValueError(
                    f"clock may not move backwards: at {clock._now}, asked for {time}"
                )
            clock._now = time
            payload.action()
        else:
            queue._live -= 1
            clock._now = time
            handlers[kind](payload)
        executed += 1
        # Raise only when live work remains: a run that quiesces on
        # exactly the budget-th event has quiesced, not run away.
        if executed >= max_events and queue._live:
            raise EventBudgetExceeded(
                f"event budget of {max_events} exhausted; "
                "the simulation is likely not quiescing"
            )
    return executed
