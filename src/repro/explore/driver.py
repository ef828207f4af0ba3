"""The explorer's choice-point model over :class:`ScriptedExecution`.

A schedule is a sequence of *actions*, each named by a stable string
label.  The driver owns one scripted execution plus a small operation
program per client, and at every step exposes the set of enabled
actions; an adversary (exhaustive, random or replayed) picks one.  The
vocabulary:

``invoke:<client>``
    Invoke the client's next programmed operation; its messages land in
    transit, undelivered.
``serve:<client>#<k>:<server>``
    Deliver the oldest in-transit request of the client's ``k``-th
    operation to ``server`` and, if the server answered immediately and
    the operation is still pending, deliver that answer straight back —
    one choice covers the common request/ack round-trip, which is what
    keeps bounded-exhaustive depths meaningful.  Requests of *completed*
    operations stay deliverable: late-arriving messages mutate server
    state and are exactly the stale deliveries the paper's constructions
    exploit.
``reply:<client>#<k>:<server>``
    Deliver the oldest withheld reply of that operation from ``server``
    (needed when servers answer asynchronously, e.g. after a gossip
    round, or when a serve found the op already complete).
``msg:<src>:<dst>[:<client>#<k>]``
    Deliver the oldest in-transit envelope on a non-client link
    (server-to-server gossip), scoped to the named operation when the
    payload carries one — so same-link gossip of different operations
    can overtake.
``crash:<server>``
    Crash a server, consuming one unit of the crash budget.
``lie:<strategy>:<client>#<k>:<server>``
    The Byzantine *content* choice point: deliver the oldest in-transit
    request of the operation to ``server`` like a ``serve``, but
    corrupt the server's reply with the named
    :class:`~repro.adversary.strategies.ReplyStrategy` before it is
    delivered back.  The first lie by a server *corrupts* it,
    consuming one unit of the Byzantine budget (≤ the model's ``b``);
    an already-corrupted server lies for free and may still answer
    honestly (``serve``) — a Byzantine server's behaviour is arbitrary
    per message.  The server's internal state stays honest (the liar
    knows exactly what a correct server knows; it only corrupts what
    it sends), matching the Section 6 adversary that can withhold and
    distort but never forge a valid signature.  The strategy menu is
    the scenario's, bounded, so the branching factor stays finite.

Messages on one (operation, link) queue deliver in FIFO order; the
adversary chooses freely *across* queues.  Labels are deterministic
functions of the prefix executed so far, so a schedule replays
byte-exactly and remains meaningful under shrinking (removing one
client's actions never renames another's).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.adversary import Adversary, DEFAULT_MENU, DROP, StrategyContext
from repro.errors import ConfigurationError, ScheduleError
from repro.explore.targets import ExploreTarget, get_target
from repro.registers.base import ClusterConfig
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import ProcessId
from repro.sim.messages import Envelope
from repro.sim.state import canon_process, canon_value
from repro.spec.histories import History, Operation, parse_pid

#: Automaton attributes constant across every state of one scenario;
#: excluded from fingerprints (identical by construction).
_CONSTANT_ATTRS = frozenset(("config", "authority"))


_QUEUE = itemgetter(0)


def _assemble(processes, pairs, driver_part, history) -> Tuple:
    """A fingerprint from its parts; ``pairs`` are ``(queue, payload)``
    in queue order, FIFO within a queue."""
    transit = tuple(
        (queue, tuple(payload for _queue, payload in group))
        for queue, group in groupby(pairs, key=_QUEUE)
    )
    return (tuple(processes), transit, *driver_part, history)


class StateTable:
    """Hash-consed fingerprint parts: each distinct part is held once
    and named by a small int.

    A *part* is a per-process entry ``(pid, class, canon_process)``, an
    in-transit ``(queue, payload)`` pair, a rank-normalised history or
    the driver's ``(programs, crashes_used, corrupted)`` triple.  A
    *state key* is the flat tuple ``(#processes, driver id, history id,
    *process ids, *transit ids)``, transit in :func:`_assemble` order:
    within one table, equal keys :meth:`expand` to equal fingerprints
    and unequal keys to unequal ones.

    One owner, one lifetime: a search's
    :class:`~repro.explore.explorer.Memo` makes the table, the search's
    driver interns into it, and it dies with them.  It only grows — ids
    are positions in :attr:`parts` and there is no ``clear``, so no key
    a memo holds can be invalidated.  Ids mean nothing in another
    table.
    """

    __slots__ = ("ids", "parts")

    def __init__(self) -> None:
        self.ids: Dict[Tuple, int] = {}
        self.parts: List[Tuple] = []

    def intern(self, part: Tuple) -> int:
        number = self.ids.setdefault(part, len(self.parts))
        if number == len(self.parts):
            self.parts.append(part)
        return number

    def expand(self, key: Tuple[int, ...]) -> Tuple:
        """The fingerprint a key of this table stands for."""
        count, driver_part, history, *rest = key
        parts = [self.parts[number] for number in rest]
        return _assemble(
            parts[:count], parts[count:], self.parts[driver_part],
            self.parts[history],
        )


@dataclass(frozen=True)
class ExploreScenario:
    """A fully deterministic exploration setup (picklable: names + ints).

    ``crash_budget`` bounds how many servers the adversary may crash
    (capped by the model's ``t``); ``byzantine_budget`` bounds how many
    it may *corrupt* (capped by the model's ``b``), and ``strategies``
    names the bounded equivocation menu corrupted servers draw replies
    from (defaulting to :data:`repro.adversary.DEFAULT_MENU` whenever
    the Byzantine budget is positive).  Write values are ``1, 2, ...``
    for a single writer and ``"w2.1"``-style strings when several
    writers must stay distinguishable.
    """

    target: str
    config: ClusterConfig
    writes_per_writer: int = 1
    reads_per_reader: int = 1
    crash_budget: int = 0
    byzantine_budget: int = 0
    strategies: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.byzantine_budget > 0 and not self.strategies:
            object.__setattr__(self, "strategies", DEFAULT_MENU)
        if not isinstance(self.strategies, tuple):
            object.__setattr__(self, "strategies", tuple(self.strategies))
        try:
            self.adversary().validate(self.config)
        except ConfigurationError as exc:
            raise ScheduleError(str(exc)) from None

    def adversary(self) -> Adversary:
        """The scenario's fault allowances as one unified model."""
        return Adversary(
            crash_budget=self.crash_budget,
            byzantine_budget=self.byzantine_budget,
            strategies=self.strategies,
        )

    def resolve(self) -> ExploreTarget:
        return get_target(self.target)

    def to_dict(self) -> Dict:
        payload = {
            "target": self.target,
            "config": {
                "S": self.config.S,
                "t": self.config.t,
                "R": self.config.R,
                "W": self.config.W,
                "b": self.config.b,
            },
            "writes_per_writer": self.writes_per_writer,
            "reads_per_reader": self.reads_per_reader,
            "crash_budget": self.crash_budget,
        }
        # Adversary content choices serialize only when present, so
        # crash-only scenarios keep their schema-v1 shape byte-exactly.
        if self.byzantine_budget > 0:
            payload["byzantine_budget"] = self.byzantine_budget
            payload["strategies"] = list(self.strategies)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict) -> "ExploreScenario":
        return cls(
            target=payload["target"],
            config=ClusterConfig(**payload["config"]),
            writes_per_writer=int(payload["writes_per_writer"]),
            reads_per_reader=int(payload["reads_per_reader"]),
            crash_budget=int(payload["crash_budget"]),
            byzantine_budget=int(payload.get("byzantine_budget", 0)),
            strategies=tuple(payload.get("strategies", ())),
        )


@dataclass(frozen=True)
class Action:
    """One enabled choice.

    ``footprint`` lists the processes whose state the action may touch.
    Two actions are *independent* — and the sleep-set reduction may
    prune one of their two orders — when their footprints are disjoint
    and they are not an invocation paired with a possibly
    response-completing delivery.  Swapping such an adjacent pair moves
    timestamps by one tick but never reorders a response relative to an
    invocation, so the real-time precedence relation every verdict is a
    function of is preserved; the invocation/completion pairing is
    exactly the case where it would not be.
    """

    label: str
    footprint: FrozenSet[ProcessId]
    is_invocation: bool = False
    completes: bool = False

    def independent_of(self, other: "Action") -> bool:
        if self.footprint & other.footprint:
            return False
        if self.is_invocation and other.completes:
            return False
        if other.is_invocation and self.completes:
            return False
        return True


@dataclass
class _ClientProgram:
    """Remaining scripted operations of one client."""

    pid: ProcessId
    ops: List[Tuple[str, object]]
    issued: int = 0
    operations: List[Operation] = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        return self.issued >= len(self.ops)


class ScheduleDriver:
    """Drives one scenario instance action by action.

    Two construction modes:

    * ``undo=False`` (default) — replay mode: cheap to construct, runs
      a schedule forward once.  Used by random walks, schedule
      shrinking, counterexample replay and the tests' prefix-replaying
      reference search.
    * ``undo=True`` — search mode: the underlying execution keeps an
      undo journal, and :meth:`mark`/:meth:`undo` let the exhaustive
      DFS pop the delta of the last action(s) instead of replaying the
      prefix.  ``states`` (implies ``undo``) is the search's
      :class:`StateTable`, which :meth:`state_key` interns into.

    The caches (envelope → action, stamp → part id) have one lifetime
    rule: :meth:`mark` notes their sizes and :meth:`undo` truncates
    them back.  Envelope ids and state-version stamps are never
    reissued, so what is truncated is dead or recomputed on the next
    miss, and the caches hold O(path length) entries.
    """

    def __init__(
        self,
        scenario: ExploreScenario,
        undo: bool = False,
        states: Optional[StateTable] = None,
    ) -> None:
        self.scenario = scenario
        self.target = scenario.resolve()
        self.execution = ScriptedExecution(record_trace=False)
        if undo or states is not None:  # part ids are cached by undo stamps
            self.execution.enable_undo()
        cluster = self.target.build(scenario.config)
        cluster.install(self.execution)
        self.cluster = cluster
        self.config = scenario.config
        self.schedule: List[str] = []
        self.crashes_used = 0
        self.adversary = scenario.adversary()
        #: Servers that have told at least one lie; the first lie
        #: consumes one unit of the Byzantine budget.
        self.corrupted: FrozenSet[ProcessId] = frozenset()
        self._menu = self.adversary.menu()
        self._strategies = {strategy.name: strategy for strategy in self._menu}
        self._strategy_ctx = StrategyContext.of(cluster)
        self._programs: Dict[ProcessId, _ClientProgram] = {}
        self._op_labels: Dict[int, str] = {}
        self._ops_by_label: Dict[str, Operation] = {}
        for pid in scenario.config.writer_ids:
            values: List[object] = [
                k if scenario.config.W == 1 else f"{pid}.{k}"
                for k in range(1, scenario.writes_per_writer + 1)
            ]
            self._programs[pid] = _ClientProgram(
                pid, [("write", value) for value in values]
            )
        for pid in scenario.config.reader_ids:
            self._programs[pid] = _ClientProgram(
                pid, [("read", None)] * scenario.reads_per_reader
            )
        # Static hot-path material: the topology never changes after
        # install, invoke/crash actions are constant per process, and
        # envelope classification is cached by (envelope id, op phase).
        self._sorted_programs = sorted(self._programs.items())
        self._sorted_processes = sorted(self.execution.processes.items())
        self._invoke_actions = {
            pid: Action(
                label=f"invoke:{pid}",
                footprint=frozenset((pid,)),
                is_invocation=True,
            )
            for pid, _ in self._sorted_programs
        }
        self._crash_actions = {
            pid: Action(label=f"crash:{pid}", footprint=frozenset((pid,)))
            for pid in self.config.server_ids
        }
        #: (envelope id, op complete? | lie strategy) -> action
        self._actions: Dict[Tuple, Optional[Action]] = {}
        self._states = states
        #: The stamped entities: the history (no process), then processes.
        self._entities = [("history", None), *self._sorted_processes]
        #: state-version stamp (or the entity's name) -> part id
        self._stamp_ids: Dict[object, int] = {}
        #: envelope id -> (queue, part id of its (queue, payload) pair)
        self._env_ids: Dict[int, Tuple[Tuple, int]] = {}
        self._caches = (self._actions, self._stamp_ids, self._env_ids)

    # ------------------------------------------------------------------
    # observation

    @property
    def history(self) -> History:
        return self.execution.history

    def responses(self) -> int:
        return self.execution.history.settled

    def operation(self, op_label: str) -> Operation:
        """The operation named ``<client>#<k>`` (must have been invoked)."""
        return self._resolve_op(op_label)

    # ------------------------------------------------------------------
    # snapshot / undo protocol (exhaustive search)

    @property
    def undo_enabled(self) -> bool:
        return self.execution.undo_enabled

    def mark(self) -> Tuple:
        """An O(#clients) checkpoint; pass to :meth:`undo` to rewind.

        Marks nest: taking a mark, applying actions, taking another mark
        and undoing to either one in any (LIFO) order is supported, and
        a mark stays valid for repeated undo/redo cycles as long as no
        undo has rewound *past* it.
        """
        return (
            self.execution.checkpoint(),
            len(self.schedule),
            self.crashes_used,
            self.corrupted,
            tuple(
                (pid, program.issued) for pid, program in self._programs.items()
            ),
            self.execution.history._next_op_id,
            tuple(len(cache) for cache in self._caches),
        )

    def undo(self, mark: Tuple) -> None:
        """Rewind driver and execution to a :meth:`mark` checkpoint."""
        (checkpoint, schedule_len, crashes_used, corrupted, issued, next_op_id,
         cache_sizes) = mark
        self.execution.rollback(checkpoint)
        for cache, size in zip(self._caches, cache_sizes):
            while len(cache) > size:
                cache.popitem()
        del self.schedule[schedule_len:]
        self.crashes_used = crashes_used
        self.corrupted = corrupted
        for pid, count in issued:
            program = self._programs[pid]
            program.issued = count
            del program.operations[count:]
        stale = [op_id for op_id in self._op_labels if op_id >= next_op_id]
        for op_id in stale:
            label = self._op_labels.pop(op_id)
            self._ops_by_label.pop(label, None)

    # ------------------------------------------------------------------
    # fingerprinting (memoization)

    def fingerprint(self) -> Tuple:
        """Canonical, hashable encoding of the current state.

        Two driver states with equal fingerprints are indistinguishable
        to any future schedule: same automaton states, same per-queue
        FIFO transit contents, same remaining client programs, crash
        budget and per-server corruption state (which servers have
        lied: it gates the future ``lie:…`` menu and the remaining
        Byzantine allowance), and histories equal up to a monotone
        re-timing (times are rank-normalised, which preserves every
        real-time-precedence comparison a verdict can depend on).
        Envelope ids, send times and virtual-clock values are
        deliberately excluded — they are unobservable to automata and
        to the oracle.

        This is the *specification* of state identity, computed from
        scratch on any driver.  The search keys its memo on
        :meth:`state_key` instead, pinned to this method by
        ``StateTable.expand(state_key()) == fingerprint()``.
        """
        pairs = [
            (self._queue_of(env), canon_value(env.payload))
            for env in self.execution.network.transit
        ]
        pairs.sort(key=_QUEUE)  # stable: FIFO inside each queue
        history, *processes = (self._part_of(*entity) for entity in self._entities)
        return _assemble(processes, pairs, self._driver_part(), history)

    def state_key(self) -> Tuple[int, ...]:
        """The current state as a flat tuple of small ints (layout:
        :class:`StateTable`).

        Which part an entity currently has is cached by the execution's
        state-version stamps.  Stamps are drawn from one monotone clock
        and *restored* by the undo journal, so a stamp names one exact
        content of one entity forever — revisiting a state after
        backtracking looks its ids up instead of re-canonicalising, and
        building a key hashes nothing bigger than the key itself.
        """
        if self._states is None:
            raise ScheduleError("state_key() needs the search's StateTable")
        intern = self._states.intern
        versions = self.execution.state_version
        stamp_ids = self._stamp_ids
        key = [len(self._sorted_processes), intern(self._driver_part())]
        for name, proc in self._entities:
            stamp = versions.get(name) or name  # never stepped: stamp 0
            number = stamp_ids.get(stamp)
            if number is None:
                number = stamp_ids[stamp] = intern(self._part_of(name, proc))
            key.append(number)
        env_ids = self._env_ids
        transit = []
        for env in self.execution.network.transit:
            entry = env_ids.get(env.env_id)
            if entry is None:
                queue = self._queue_of(env)
                number = intern((queue, canon_value(env.payload)))
                entry = env_ids[env.env_id] = (queue, number)
            transit.append(entry)
        transit.sort(key=_QUEUE)
        key.extend(number for _queue, number in transit)
        return tuple(key)

    def _part_of(self, name, proc) -> Tuple:
        if proc is None:
            return self._history_part()
        return (name, type(proc).__name__, canon_process(proc, _CONSTANT_ATTRS))

    def _queue_of(self, env: Envelope) -> Tuple:
        return (env.src, env.dst, self._op_labels.get(env.op_id) or "")

    def _driver_part(self) -> Tuple:
        return (
            tuple((pid, program.issued) for pid, program in self._sorted_programs),
            self.crashes_used,
            tuple(sorted(self.corrupted)),
        )

    def _history_part(self) -> Tuple:
        operations = self.history.operations
        times = {op.invoked_at for op in operations}
        times.update(op.responded_at for op in operations)
        rank = {t: i for i, t in enumerate(sorted(times - {None}))}
        rank[None] = None  # still pending
        return tuple(
            (op.proc, op.kind, canon_value(op.value), canon_value(op.result),
             rank[op.invoked_at], rank[op.responded_at])
            for op in operations
        )

    # ------------------------------------------------------------------
    # enabled actions

    def enabled(self) -> List[Action]:
        """All currently enabled actions, in label order (deterministic)."""
        actions: List[Action] = []
        processes = self.execution.processes
        for pid, program in self._sorted_programs:
            client = processes[pid]
            if (
                not client.crashed
                and client.current_op is None
                and not program.exhausted
            ):
                actions.append(self._invoke_actions[pid])
        if self.crashes_used < min(self.scenario.crash_budget, self.config.t):
            for pid in self.config.server_ids:
                if not processes[pid].crashed:
                    actions.append(self._crash_actions[pid])
        seen_labels = set()
        menu = self._menu
        can_recruit = (
            len(self.corrupted) < self.byzantine_allowance if menu else False
        )
        for env in self.execution.network.transit:
            action = self._classify(env)
            if action is not None and action.label not in seen_labels:
                seen_labels.add(action.label)
                actions.append(action)
            if (
                menu
                and env.src.is_client
                and env.dst.is_server
                and (can_recruit or env.dst in self.corrupted)
                and not processes[env.dst].crashed
            ):
                op_label = self._op_labels.get(env.op_id)
                if (
                    op_label is not None
                    and not self._ops_by_label[op_label].complete
                ):
                    for strategy in menu:
                        lie = self._lie_action(env, op_label, strategy.name)
                        if lie.label not in seen_labels:
                            seen_labels.add(lie.label)
                            actions.append(lie)
        actions.sort(key=lambda action: action.label)
        return actions

    @property
    def byzantine_allowance(self) -> int:
        """Servers the adversary may corrupt: ``min(budget, b)``."""
        return min(self.scenario.byzantine_budget, self.config.b)

    def _lie_action(self, env: Envelope, op_label: str, strategy: str) -> Action:
        """The content choice point for one (request, strategy) pair.

        Like the ``serve`` it shadows, a lie may complete the victim's
        operation (the corrupted reply is delivered back), so its
        footprint covers both the server and the invoking client and it
        pairs with invocations for the reduction's completion rule.
        """
        key = (env.env_id, strategy)
        action = self._actions.get(key)
        if action is None:
            action = self._actions[key] = Action(
                label=f"lie:{strategy}:{op_label}:{env.dst}",
                footprint=frozenset((env.dst, env.src)),
                completes=True,
            )
        return action

    def _classify(self, env: Envelope) -> Optional[Action]:
        """Map one in-transit envelope to its action, or ``None``.

        The result depends only on the envelope (immutable), whether its
        operation has completed, and whether the destination is crashed;
        crash is checked live and the rest is cached per envelope —
        labels are hot enough that rebuilding them every ``enabled()``
        call dominated exploration profiles.
        """
        if self.execution.processes[env.dst].crashed:
            return None
        op_label = self._op_labels.get(env.op_id)
        complete = (
            self._ops_by_label[op_label].complete
            if op_label is not None
            else None
        )
        cache = self._actions
        key = (env.env_id, complete)
        try:
            return cache[key]
        except KeyError:
            pass
        action = self._classify_uncached(env, op_label, complete)
        cache[key] = action
        return action

    def _classify_uncached(
        self, env: Envelope, op_label: Optional[str], complete: Optional[bool]
    ) -> Optional[Action]:
        if op_label is not None and env.src.is_client and env.dst.is_server:
            if complete:
                # A stale request: mutates the server, cannot complete a
                # response (the auto-reply is skipped for finished ops).
                return Action(
                    label=f"serve:{op_label}:{env.dst}",
                    footprint=frozenset((env.dst,)),
                )
            return Action(
                label=f"serve:{op_label}:{env.dst}",
                footprint=frozenset((env.dst, env.src)),
                completes=True,
            )
        if op_label is not None and env.src.is_server and env.dst.is_client:
            if complete:
                return None  # a stale ack; the client ignores it
            return Action(
                label=f"reply:{op_label}:{env.src}",
                footprint=frozenset((env.dst,)),
                completes=True,
            )
        # Non-client links (server-to-server gossip): one FIFO queue per
        # (link, operation) so gossip of a later operation may overtake
        # gossip of an earlier one on the same link.
        suffix = f":{op_label}" if op_label is not None else ""
        return Action(
            label=f"msg:{env.src}:{env.dst}{suffix}",
            footprint=frozenset((env.dst,)),
        )

    # ------------------------------------------------------------------
    # applying actions

    def apply(self, label: str) -> None:
        """Execute one action by label.

        Raises :class:`ScheduleError` when the label is not currently
        enabled — strict replay relies on this.
        """
        kind, _, rest = label.partition(":")
        if kind == "invoke":
            self._apply_invoke(rest)
        elif kind == "crash":
            self._apply_crash(rest)
        elif kind == "serve":
            self._apply_serve(rest)
        elif kind == "reply":
            self._apply_reply(rest)
        elif kind == "msg":
            self._apply_msg(rest)
        elif kind == "lie":
            self._apply_lie(rest)
        else:
            raise ScheduleError(f"malformed action label {label!r}")
        self.schedule.append(label)

    def run(self, labels) -> None:
        """Strictly replay a schedule (used by replay verification)."""
        for label in labels:
            self.apply(label)

    def _client(self, text: str) -> _ClientProgram:
        pid = parse_pid(text)
        program = self._programs.get(pid)
        if program is None:
            raise ScheduleError(f"{text} is not a scripted client")
        return program

    def _apply_invoke(self, client_text: str) -> None:
        program = self._client(client_text)
        if program.exhausted:
            raise ScheduleError(f"{client_text} has no operations left")
        client = self.execution.processes[program.pid]
        if client.current_op is not None:
            raise ScheduleError(
                f"{client_text} still has a pending operation; cannot invoke"
            )
        kind, value = program.ops[program.issued]
        op = self.execution.invoke(program.pid, kind, value)
        program.issued += 1
        program.operations.append(op)
        op_label = f"{program.pid}#{program.issued}"
        self._op_labels[op.op_id] = op_label
        self._ops_by_label[op_label] = op

    def _apply_crash(self, server_text: str) -> None:
        pid = parse_pid(server_text)
        if self.execution.processes[pid].crashed:
            raise ScheduleError(f"{server_text} already crashed")
        if self.crashes_used >= min(self.scenario.crash_budget, self.config.t):
            raise ScheduleError("crash budget exhausted")
        self.execution.crash(pid)
        self.crashes_used += 1

    def _resolve_op(self, op_label: str) -> Operation:
        op = self._ops_by_label.get(op_label)
        if op is None:
            raise ScheduleError(f"no operation {op_label!r} has been invoked")
        return op

    def _oldest(
        self, src: Optional[ProcessId], dst: ProcessId, op_id: Optional[int]
    ) -> Optional[Envelope]:
        for env in self.execution.network.transit:
            if src is not None and env.src != src:
                continue
            if env.dst != dst:
                continue
            if op_id is not None and env.op_id != op_id:
                continue
            return env
        return None

    def _apply_serve(self, rest: str) -> None:
        op_label, _, server_text = rest.rpartition(":")
        server_pid = parse_pid(server_text)
        op = self._resolve_op(op_label)
        request = self._oldest(src=op.proc, dst=server_pid, op_id=op.op_id)
        if request is None:
            raise ScheduleError(f"no request of {op_label} in transit to {server_text}")
        self.execution.deliver(request)
        if not op.complete:
            reply = self._oldest(src=server_pid, dst=op.proc, op_id=op.op_id)
            if reply is not None:
                self.execution.deliver(reply)

    def _apply_lie(self, rest: str) -> None:
        """Serve a request through a lying server.

        The request is delivered (the server's *state* updates
        honestly — the liar knows what a correct server knows), the
        honest reply is corrupted in transit by the strategy, and the
        corrupted reply is delivered back while the operation is still
        pending — one choice covering the request/corrupted-ack round
        trip, mirroring ``serve``.  A strategy may also withhold the
        reply (:data:`repro.adversary.DROP`) or declare itself
        inapplicable (the honest reply then travels unchanged: a lie
        that tells the truth, legal for a Byzantine server).
        """
        strategy_name, _, tail = rest.partition(":")
        strategy = self._strategies.get(strategy_name)
        if strategy is None:
            raise ScheduleError(
                f"strategy {strategy_name!r} is not in this scenario's menu"
            )
        op_label, _, server_text = tail.rpartition(":")
        server_pid = parse_pid(server_text)
        if not server_pid.is_server:
            raise ScheduleError(f"{server_text} is not a server; cannot lie")
        if (
            server_pid not in self.corrupted
            and len(self.corrupted) >= self.byzantine_allowance
        ):
            raise ScheduleError("Byzantine corruption budget exhausted")
        op = self._resolve_op(op_label)
        if op.complete:
            raise ScheduleError(
                f"{op_label} already completed; lies target pending operations"
            )
        request = self._oldest(src=op.proc, dst=server_pid, op_id=op.op_id)
        if request is None:
            raise ScheduleError(
                f"no request of {op_label} in transit to {server_text}"
            )
        self.corrupted = self.corrupted | {server_pid}
        # Only messages the server emits *now* are corruptible: a liar
        # cannot reach back into envelopes already in flight, so the
        # scan starts where the transit pool ends once the request
        # leaves it.
        emitted_from = len(self.execution.network.transit) - 1
        self.execution.deliver(request)
        reply = None
        for env in self.execution.network.transit[emitted_from:]:
            if (
                env.src == server_pid
                and env.dst == op.proc
                and env.op_id == op.op_id
            ):
                reply = env
                break
        if reply is None:
            return  # the server chose not to answer; nothing to corrupt
        corrupted = strategy.corrupt(reply.payload, self._strategy_ctx)
        if corrupted is DROP:
            self.execution.drop(reply)
            return
        if corrupted is not None:
            reply = self.execution.corrupt_reply(reply, corrupted)
        if not op.complete:
            self.execution.deliver(reply)

    def _apply_reply(self, rest: str) -> None:
        op_label, _, server_text = rest.rpartition(":")
        server_pid = parse_pid(server_text)
        op = self._resolve_op(op_label)
        reply = self._oldest(src=server_pid, dst=op.proc, op_id=op.op_id)
        if reply is None:
            raise ScheduleError(f"no reply of {op_label} in transit from {server_text}")
        self.execution.deliver(reply)

    def _apply_msg(self, rest: str) -> None:
        parts = rest.split(":")
        if len(parts) not in (2, 3):
            raise ScheduleError(f"malformed msg action msg:{rest}")
        src = parse_pid(parts[0])
        dst = parse_pid(parts[1])
        op_id = self._resolve_op(parts[2]).op_id if len(parts) == 3 else None
        env = self._oldest(src=src, dst=dst, op_id=op_id)
        if env is None:
            raise ScheduleError(f"no envelope in transit on msg:{rest}")
        self.execution.deliver(env)


def collect_transcript(scenario: ExploreScenario, labels) -> Tuple:
    """Strictly replay a schedule with the accountability overlay on.

    Statement signing is never active during the search itself (it
    would have to participate in the undo journal); instead a violating
    schedule is re-run here on a fresh replay-mode driver whose execution
    carries a :class:`~repro.accountability.recorder.StatementRecorder`.
    Corrupted replies go through
    :meth:`~repro.sim.controller.ScriptedExecution.corrupt_reply`, so
    they are re-signed with the corrupted server's real key — the
    transcript contains signed lies, ready for the auditor.

    Returns ``(driver, transcript)``.  The signing domain is the
    cluster's authority when the protocol has one, else a dedicated
    seed-0 transport authority — deterministic either way, so replays
    of the same schedule yield byte-identical transcripts and
    certificates.
    """
    from repro.accountability.recorder import StatementRecorder

    driver = ScheduleDriver(scenario)
    recorder = StatementRecorder(
        authority=driver.cluster.authority, authority_seed=0
    )
    driver.execution.statement_recorder = recorder
    driver.run(labels)
    return driver, recorder.transcript
