"""Shared plumbing for register protocols.

* :class:`ClusterConfig` — the system parameters ``(S, t, R, W, b)`` and
  the derived quantities (process id lists, the ``S - t`` quorum).
* :class:`AckSet` — client-side collection of replies from distinct
  servers up to a threshold.
* :class:`StorageServer` — the generic adopt-if-newer tag store used by
  every non-fast protocol (ABD, SWSR, regular, MWMR, max-min writes).
* :class:`QuorumClient` — the query phase and the store phase those
  protocols' clients are sequences of, and :func:`crash_requirement`,
  the feasibility condition they share.
* :class:`Cluster` — the assembled processes of one protocol instance,
  ready to install into either runtime, and :func:`assemble_cluster`,
  the one place a protocol's class triple becomes a cluster.
* :class:`ProtocolSpec` — the one declaration of a protocol (its facts,
  its :class:`Automata`, its requirement); every register module ends
  in one ``SPEC``, and the registry row, the explorer target and the
  ablated variants (:meth:`ProtocolSpec.swap`) are derived from it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.crypto.signatures import SignatureAuthority
from repro.errors import ConfigurationError
from repro.registers import messages as msg
from repro.registers.timestamps import INITIAL_TAG, ValueTag
from repro.sim.ids import ProcessId
from repro.sim.process import ClientProcess, Context, Process
from repro.sim import ids


@dataclass(frozen=True)
class ClusterConfig:
    """System parameters of one register deployment.

    Attributes:
        S: number of servers.
        t: maximum number of faulty servers (crash or Byzantine).
        R: number of readers.
        W: number of writers (1 except for Section 7 experiments).
        b: maximum number of *Byzantine* servers among the ``t`` faulty
            ones (``b <= t``), per Section 6.
    """

    S: int
    t: int
    R: int
    W: int = 1
    b: int = 0

    def __post_init__(self) -> None:
        if self.S < 1:
            raise ConfigurationError("need at least one server")
        if not 0 <= self.t < self.S:
            raise ConfigurationError(
                f"faulty servers t={self.t} must satisfy 0 <= t < S={self.S}"
            )
        if self.R < 0 or self.W < 1:
            raise ConfigurationError("need R >= 0 readers and W >= 1 writers")
        if not 0 <= self.b <= self.t:
            raise ConfigurationError(
                f"Byzantine servers b={self.b} must satisfy 0 <= b <= t={self.t}"
            )

    @property
    def quorum(self) -> int:
        """Replies a client may wait for: ``S - t`` (Section 3.2)."""
        return self.S - self.t

    # The id lists are cached: clients multicast to ``server_ids`` on
    # every operation, and rebuilding S ProcessIds per invocation showed
    # up in engine profiles.  Callers must not mutate the returned lists
    # (the config is conceptually frozen).

    @cached_property
    def server_ids(self) -> List[ProcessId]:
        return ids.servers(self.S)

    @cached_property
    def reader_ids(self) -> List[ProcessId]:
        return ids.readers(self.R)

    @cached_property
    def writer_ids(self) -> List[ProcessId]:
        return ids.writers(self.W)

    @cached_property
    def client_ids(self) -> List[ProcessId]:
        return self.writer_ids + self.reader_ids


class AckSet:
    """Collects replies from distinct senders until a threshold.

    ``add`` returns True exactly once — when the threshold is reached —
    so client automata can trigger their decision step exactly once even
    if further (late) replies arrive.
    """

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ConfigurationError("ack threshold must be at least 1")
        self.threshold = threshold
        self.replies: Dict[ProcessId, Any] = {}
        self._fired = False

    def add(self, src: ProcessId, payload: Any) -> bool:
        if src in self.replies:
            return False  # channels do not duplicate; ignore repeats/forgeries
        self.replies[src] = payload
        if not self._fired and len(self.replies) >= self.threshold:
            self._fired = True
            return True
        return False

    @property
    def count(self) -> int:
        return len(self.replies)

    def payloads(self) -> List[Any]:
        return list(self.replies.values())

    def senders(self) -> List[ProcessId]:
        return list(self.replies.keys())


class StorageServer(Process):
    """Generic replica: stores the highest tag seen, answers queries.

    Handles the ``Query``/``Store`` family.  Protocol-specific servers
    (fast, max-min) implement their own richer automata.
    """

    def __init__(self, pid: ProcessId, initial_tag: ValueTag = INITIAL_TAG) -> None:
        super().__init__(pid)
        self.tag = initial_tag

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if isinstance(payload, msg.Query):
            ctx.send(src, msg.QueryReply(op_id=payload.op_id, tag=self.tag))
        elif isinstance(payload, msg.Store):
            if payload.tag.ts > self.tag.ts:
                self.tag = payload.tag
            ctx.send(src, msg.StoreAck(op_id=payload.op_id, ts=payload.tag.ts))
        # Unknown messages are ignored: in the Byzantine experiments
        # honest servers may legitimately receive garbage.

    def describe_state(self) -> str:
        return f"{type(self).__name__}({self.pid}, tag={self.tag})"


class RegisterClient(ClientProcess):
    """Base for protocol clients: stores the configuration."""

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid)
        self.config = config

    def _matches_current(self, payload: Any) -> bool:
        """True when a reply belongs to the pending operation."""
        return (
            self.current_op is not None
            and getattr(payload, "op_id", None) == self.current_op.op_id
        )


class QuorumClient(RegisterClient):
    """Client of the ``Query``/``Store`` family every baseline is made of.

    An operation is a sequence of two phase kinds, each over when
    ``S - t`` distinct servers have answered: a *query* multicasts one
    request and collects replies of :attr:`reply_type`, a *store*
    multicasts ``Store(tag)`` and collects ``StoreAck``s echoing
    ``tag.ts``.  A protocol states only what follows each: its
    :meth:`_queried` and :meth:`_stored` hooks.

    ``_tag`` — the tag being stored, ``None`` while querying — is also
    the phase.  It and the fired ack set linger after completion until
    the next phase opens; the explorer fingerprints every attribute, so
    a hook that forgets state (a writer its pending tag) says so.
    """

    reply_type: type = msg.QueryReply

    def __init__(self, pid: ProcessId, config: ClusterConfig) -> None:
        super().__init__(pid, config)
        self._acks: Optional[AckSet] = None
        self._tag: Optional[ValueTag] = None

    def on_invoke(self, op: Any, ctx: Context) -> None:
        """Query first; a writer that knows its tag stores at once."""
        self._query(msg.Query(op_id=op.op_id), ctx)

    def _query(self, request: Any, ctx: Context) -> None:
        self._tag = None
        self._acks = AckSet(self.config.quorum)
        ctx.multicast(self.config.server_ids, request)

    def _store(self, tag: ValueTag, ctx: Context) -> None:
        self._tag = tag
        self._acks = AckSet(self.config.quorum)
        request = msg.Store(op_id=self.current_op.op_id, tag=tag)
        ctx.multicast(self.config.server_ids, request)

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        if not self._matches_current(payload):
            return
        tag = self._tag
        if tag is None:
            if isinstance(payload, self.reply_type) and self._acks.add(src, payload):
                self._queried(self._acks.payloads(), ctx)
        elif (
            isinstance(payload, msg.StoreAck)
            and payload.ts == tag.ts
            and self._acks.add(src, payload)
        ):
            self._stored(tag, ctx)

    def _queried(self, replies: List[Any], ctx: Context) -> None:
        """The query quorum is in: complete, or open a store phase."""
        raise NotImplementedError

    def _stored(self, tag: ValueTag, ctx: Context) -> None:
        """The store quorum for ``tag`` is in."""
        raise NotImplementedError


def crash_requirement(
    config: ClusterConfig,
    subject: str,
    name: str,
    single_writer: Optional[str] = "single-writer protocol",
    single_reader: bool = False,
) -> Optional[str]:
    """Why a crash-model quorum register cannot run; ``None`` if it can.

    ``b = 0``; ``W = 1`` unless ``single_writer`` (the refusal) is
    ``None``; ``R = 1`` if ``single_reader``; and ``t < S/2``, so that
    quorums of ``S - t`` intersect.
    """
    if config.b != 0:
        return f"{subject} assumes crash failures only"
    if single_writer is not None and config.W != 1:
        return single_writer
    if single_reader and config.R != 1:
        return f"single-reader protocol: R must be 1, got {config.R}"
    if 2 * config.t >= config.S:
        return f"{name} needs t < S/2: got t={config.t}, S={config.S}"
    return None


class Automata(NamedTuple):
    """A protocol's declared components: its three automaton factories.

    Each is called as ``(pid, config)``.  The automata of a ``signed``
    protocol additionally receive the deployment's shared
    :class:`~repro.crypto.signatures.SignatureAuthority`.
    """

    server: Callable[..., Process]
    reader: Callable[..., ClientProcess]
    writer: Callable[..., ClientProcess]
    signed: bool = False


@dataclass
class Cluster:
    """One assembled protocol deployment.

    ``install`` registers every process with a runtime (free-running or
    scripted) and returns it, enabling
    ``ScriptedExecution()`` / ``Simulation()`` + ``cluster.install(...)``
    one-liners in tests and benchmarks.  ``automata`` are the factories
    the cluster was assembled from, so it can make any of its processes
    again (:meth:`honest_server`).
    """

    config: ClusterConfig
    protocol: str
    servers: List[Process]
    readers: List[ClientProcess]
    writers: List[ClientProcess]
    automata: Automata
    authority: Optional[SignatureAuthority] = None

    def all_processes(self) -> List[Process]:
        return [*self.servers, *self.readers, *self.writers]

    def install(self, runtime) -> Any:
        runtime.add_processes(self.all_processes())
        return runtime

    def server(self, index: int) -> Process:
        return self.servers[index - 1]

    def reader(self, index: int) -> ClientProcess:
        return self.readers[index - 1]

    def writer(self, index: int = 1) -> ClientProcess:
        return self.writers[index - 1]

    def _make(self, factory: Callable[..., Process], pid: ProcessId) -> Process:
        extra = (self.authority,) if self.automata.signed else ()
        return factory(pid, self.config, *extra)

    def honest_server(self, index: int) -> Process:
        """A factory-fresh honest automaton for ``s<index>``: what a
        Byzantine stand-in runs inside, wipes back to, or shadows."""
        return self._make(self.automata.server, ids.server(index))

    def replace_server(self, index: int, process: Process) -> None:
        """Swap server ``s<index>`` for a (typically Byzantine) stand-in.

        The replacement must keep the same process id so that clients'
        quorum arithmetic is unaffected.
        """
        expected = ids.server(index)
        if process.pid != expected:
            raise ConfigurationError(
                f"replacement for {expected} has wrong pid {process.pid}"
            )
        self.servers[index - 1] = process


def assemble_cluster(
    spec: "ProtocolSpec", config: ClusterConfig, enforce: bool, seed: int
) -> Cluster:
    """Build one protocol deployment from its declared components.

    ``seed`` derives a signed protocol's authority (same seed, same keys
    — which is how parties in different OS processes verify each
    other's signatures) and is ignored elsewhere.  ``enforce=False``
    skips the feasibility check: the lower-bound constructions, the
    explorer and the ablations deliberately run protocols beyond their
    threshold.
    """
    if enforce:
        problem = spec.requirement(config)
        if problem is not None:
            raise ConfigurationError(problem)
    automata = spec.automata
    authority = None
    if automata.signed:
        authority = SignatureAuthority(seed=seed)
        authority.register(ids.writer(1))
    cluster = Cluster(config, spec.name, [], [], [], automata, authority)
    make = cluster._make
    cluster.servers = [make(automata.server, pid) for pid in config.server_ids]
    cluster.readers = [make(automata.reader, pid) for pid in config.reader_ids]
    cluster.writers = [make(automata.writer, pid) for pid in config.writer_ids]
    return cluster


@dataclass(frozen=True)
class VectorProfile:
    """A protocol's declaration that its client automata are fixed-round.

    Every operation then performs a statically known number of round
    trips, so the lockstep batch kernel (:mod:`repro.sim.vector`) knows
    its completion time, message count and round verdict from the
    invocation time alone.  Protocols without a profile (semifast's
    data-dependent second round, the MWMR two-phase writers, Byzantine
    variants) fall back to the scalar engine.

    Attributes:
        predicate_reads: the read value is gated by the Figure 2
            ``seen``-predicate, so the kernel must fold the per-server
            seen sets (as client bitmasks) alongside the tag field.
    """

    predicate_reads: bool = False


@dataclass(frozen=True)
class ProtocolSpec:
    """The one declaration of a register implementation.

    ``read_rounds``/``write_rounds`` are the *expected* client round
    counts (verified against traces by the fastness checker);
    ``fast_reads``/``fast_writes`` flag conformance to the paper's
    Section 3.2 definition, which also constrains server behaviour.

    ``contract`` is the consistency condition the protocol is judged
    against — ``"atomic"`` or ``"regular"``; ``atomic`` says whether it
    really is atomic (the Section 7 strawman claims atomicity and is
    not; the Section 8 register claims only regularity).

    ``requirement`` says why a configuration cannot run the protocol
    (``None`` if it can); ``automata`` are its three components.

    ``vector`` declares the one fact only the batch kernel needs of a
    fixed-round automaton, or is ``None`` when the automaton is not
    fixed-round; the round counts and fastness the kernel also reads
    are this spec's own.

    ``gossip``: servers run one all-to-all gossip round before
    answering a read (the max-min register).  That adds one message
    delay and ``S * (S - 1)`` messages per read, makes reads non-fast
    even though the client uses one round, and needs server-to-server
    links.
    """

    name: str
    summary: str
    paper_source: str
    multi_writer: bool
    read_rounds: int
    write_rounds: int
    fast_reads: bool
    fast_writes: bool
    atomic: bool
    requirement: Callable[[ClusterConfig], Optional[str]]
    automata: Automata
    vector: Optional[VectorProfile] = None
    contract: str = "atomic"
    gossip: bool = False

    def build(
        self, config: ClusterConfig, enforce: bool = True, seed: int = 0
    ) -> Cluster:
        return assemble_cluster(self, config, enforce, seed)

    def swap(self, *classes: type) -> "ProtocolSpec":
        """This protocol with each class standing in for the role it
        subclasses: ``"<name>(ablated)"``, for ``enforce=False`` builds."""
        roles = list(self.automata[:3])
        for cls in classes:
            for i, role in enumerate(roles):
                if isinstance(role, type) and issubclass(cls, role):
                    roles[i] = cls
                    break
            else:
                raise ConfigurationError(
                    f"{cls.__name__} subclasses no automaton of {self.name!r}"
                )
        return replace(
            self,
            name=f"{self.name}(ablated)",
            automata=Automata(*roles, self.automata.signed),
        )
