"""Network transports.

The model's channels are reliable, bidirectional and do not duplicate
messages; no delivery-order guarantee is assumed.  Two transports share
that contract:

* :class:`SimNetwork` samples a latency per message and schedules the
  delivery on the event queue — the free-running mode used by workloads
  and benchmarks.
* :class:`HeldNetwork` parks every message in a transit pool and delivers
  only what a scripted schedule asks for — the paper's "messages in
  transit" device, used by the lower-bound constructions and by targeted
  tests.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ScheduleError
from repro.sim.events import DELIVER, EventQueue, VirtualClock
from repro.sim.ids import ProcessId
from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.messages import Envelope

DeliveryCallback = Callable[[Envelope], None]
SendFilter = Callable[[Envelope], bool]

#: How many delays to pre-sample per refill of the fast-path buffer.
#: Draw order equals consumption (send) order, so batching never changes
#: which delay a given message receives.
PRESAMPLE_BATCH = 1024


class SimNetwork:
    """Latency-sampling transport over an event queue.

    ``send_filters`` may drop messages at send time (used for fault
    injection, e.g. a sender crashing mid-multicast); a dropped message
    is reported through ``on_drop`` so traces stay complete.

    Deliveries go onto the queue as raw ``DELIVER`` entries dispatched
    through the queue's jump table — no closure per message.  For
    link-invariant latency models the per-message delays are pre-sampled
    in batches; constant models skip the RNG entirely.
    """

    def __init__(
        self,
        queue: EventQueue,
        clock: VirtualClock,
        deliver: DeliveryCallback,
        latency: Optional[LatencyModel] = None,
        rng: Optional[random.Random] = None,
        fifo: bool = False,
        on_drop: Optional[DeliveryCallback] = None,
    ) -> None:
        self._queue = queue
        self._clock = clock
        self._deliver = deliver
        self._latency = latency or ConstantLatency()
        self._rng = rng or random.Random(0)
        self._fifo = fifo
        self._on_drop = on_drop
        self._send_filters: List[SendFilter] = []
        self._last_delivery: Dict[Tuple[ProcessId, ProcessId], float] = {}
        self.sent_count = 0
        self.dropped_count = 0
        self._const_delay = self._latency.constant_delay()
        self._batchable = self._latency.link_invariant and self._const_delay is None
        self._presampled: List[float] = []
        self._push = queue.push
        queue.set_handler(DELIVER, deliver)

    def add_send_filter(self, keep: SendFilter) -> None:
        """Register a predicate; a message is dropped unless all keep it."""
        self._send_filters.append(keep)

    def submit(self, env: Envelope) -> None:
        if self._send_filters:
            for keep in self._send_filters:
                if not keep(env):
                    self.dropped_count += 1
                    if self._on_drop is not None:
                        self._on_drop(env)
                    return
        self.sent_count += 1
        delay = self._const_delay
        if delay is None:
            if self._batchable:
                buffer = self._presampled
                if not buffer:
                    buffer = self._latency.delays(
                        env.src, env.dst, self._rng, PRESAMPLE_BATCH
                    )
                    buffer.reverse()  # consume in draw order via pop()
                    self._presampled = buffer
                delay = buffer.pop()
            else:
                delay = self._latency.delay(env.src, env.dst, self._rng)
        deliver_at = self._clock._now + delay
        if self._fifo:
            link = (env.src, env.dst)
            floor = self._last_delivery.get(link, 0.0)
            if deliver_at <= floor:
                deliver_at = floor + 1e-9
            self._last_delivery[link] = deliver_at
        self._push(deliver_at, DELIVER, env)


class HeldNetwork:
    """Transport that holds every message until explicitly released.

    This realises the proof device of Sections 5–7: all messages start
    "in transit"; a schedule chooses which envelopes reach their
    destination and in which order.  Messages never released model the
    paper's skipped blocks, and dropping models messages a crashed sender
    never managed to send.
    """

    def __init__(self, deliver: DeliveryCallback) -> None:
        self._deliver = deliver
        self.transit: List[Envelope] = []
        self.delivered: List[Envelope] = []
        self.dropped: List[Envelope] = []
        self.sent_count = 0
        #: Optional undo journal shared with the owning runtime (see
        #: :meth:`repro.sim.controller.ScriptedExecution.enable_undo`).
        #: When set, every transit mutation appends an inverse record.
        self.journal: Optional[List] = None

    def submit(self, env: Envelope) -> None:
        self.sent_count += 1
        self.transit.append(env)
        if self.journal is not None:
            self.journal.append(("submit", None, None))

    # ------------------------------------------------------------------
    # queries over the transit pool

    def in_transit(
        self,
        src: Optional[ProcessId] = None,
        dst: Optional[ProcessId] = None,
        op_id: Optional[int] = None,
        payload_type: Optional[type] = None,
    ) -> List[Envelope]:
        """Envelopes currently in transit matching all given filters."""
        out = []
        for env in self.transit:
            if src is not None and env.src != src:
                continue
            if dst is not None and env.dst != dst:
                continue
            if op_id is not None and env.op_id != op_id:
                continue
            if payload_type is not None and not isinstance(env.payload, payload_type):
                continue
            out.append(env)
        return out

    # ------------------------------------------------------------------
    # releases

    def release(self, env: Envelope) -> None:
        """Deliver one held envelope now."""
        try:
            index = self.transit.index(env)
        except ValueError:
            raise ScheduleError(
                f"envelope {env.describe()} is not in transit "
                "(already delivered or dropped?)"
            ) from None
        del self.transit[index]
        self.delivered.append(env)
        if self.journal is not None:
            self.journal.append(("release", env, index))
        self._deliver(env)

    def release_all(self, envelopes: Iterable[Envelope]) -> int:
        """Deliver the given envelopes in the given order; returns count.

        The iterable is materialised first so callers may pass queries
        over the live transit pool.
        """
        batch = list(envelopes)
        for env in batch:
            self.release(env)
        return len(batch)

    def substitute(self, env: Envelope, payload) -> Envelope:
        """Adversary hook: replace a held envelope with a corrupted twin.

        The twin keeps the source, destination and send instant (the
        corruption is invisible to the network) but carries the
        adversary's payload and a fresh ``env_id``; it takes the
        original's exact queue position so FIFO per-queue order is
        undisturbed.  Journaled like every transit mutation, so the
        incremental engine undoes a corruption exactly like an honest
        one.
        """
        try:
            index = self.transit.index(env)
        except ValueError:
            raise ScheduleError(
                f"cannot corrupt {env.describe()}: not in transit"
            ) from None
        twin = Envelope(
            src=env.src, dst=env.dst, payload=payload, send_time=env.send_time
        )
        self.transit[index] = twin
        if self.journal is not None:
            self.journal.append(("subst", env, index))
        return twin

    def drop(self, env: Envelope) -> None:
        """Remove a held envelope without delivering it."""
        try:
            index = self.transit.index(env)
        except ValueError:
            raise ScheduleError(
                f"cannot drop {env.describe()}: not in transit"
            ) from None
        del self.transit[index]
        self.dropped.append(env)
        if self.journal is not None:
            self.journal.append(("drop", env, index))
