"""Byzantine server behaviours (Section 6's "malicious" processes).

Each behaviour is a drop-in :class:`~repro.sim.process.Process` that
replaces an honest server (same process id) via
:meth:`repro.registers.base.Cluster.replace_server`.  None of them can
forge the writer's signature — they manipulate only information they
legitimately received, which is exactly the adversary the Figure 5
algorithm is proved against.  That material is composed in one place,
from the cluster: the liar runs ``cluster.honest_server(index)`` inside
and may use what ``StrategyContext.of(cluster)`` holds.

* :func:`corrupt` — the one way to install a lying server:
  ``corrupt(cluster, 1, "stale")``.
* :class:`StrategyServer` — what it installs: an inner honest automaton
  with one named :class:`~repro.adversary.strategies.ReplyStrategy`
  from :mod:`repro.adversary` applied to every reply, so the same
  bounded menu (``stale``, ``inflate-seen``, ``forge``, ``silent``)
  drives free-running fault injection and the explorer's ``lie:…``
  choice points.

Two behaviours corrupt *state* rather than replies and have no strategy
equivalent yet; both take ``cluster.honest_server`` as their factory:

* :class:`MemoryWipeServer` — behaves correctly, then forgets
  everything it ever received.
* :class:`TwoFacedServer` — maintains a real state and a shadow state
  that never learns about writes, answering a chosen set of victims
  from the shadow.  With the victims set to one reader this is
  precisely the "loses its memory towards r1" failure of the
  Section 6.2 lower-bound run.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Tuple, Union

from repro.adversary.strategies import (
    DROP,
    ReplyStrategy,
    StrategyContext,
    get_strategy,
)
from repro.errors import ProtocolError
from repro.registers import messages as msg
from repro.registers.base import Cluster
from repro.sim.ids import ProcessId
from repro.sim.process import Context, Process


class _CaptureContext:
    """A context that records sends instead of performing them.

    Used to run an inner honest automaton and intercept its output; the
    Byzantine wrapper then decides what actually goes on the wire.
    """

    def __init__(self, now: float, pid: ProcessId) -> None:
        self.now = now
        self.pid = pid
        self.sent: List[Tuple[ProcessId, Any]] = []

    def send(self, dst: ProcessId, payload: Any) -> None:
        self.sent.append((dst, payload))

    def multicast(self, dsts, payload_for) -> None:
        for dst in dsts:
            payload = payload_for(dst) if callable(payload_for) else payload_for
            self.send(dst, payload)

    def complete(self, result: Any) -> None:
        raise ProtocolError("server automata never complete operations")


def run_captured(
    inner: Process, payload: Any, src: ProcessId, now: float
) -> List[Tuple[ProcessId, Any]]:
    """Feed one message to an inner automaton, returning its sends."""
    capture = _CaptureContext(now, inner.pid)
    inner.on_message(payload, src, capture)
    return capture.sent


class ByzantineServer(Process):
    """Marker base class; ``is_byzantine`` lets tests count liars."""

    is_byzantine = True


class StrategyServer(ByzantineServer):
    """Wraps an honest automaton, corrupting every reply with one strategy.

    The wrapper is the free-running face of the adversary layer's
    content choices: the inner automaton processes each message
    honestly (so the liar's knowledge is exactly a correct server's),
    and the named :class:`~repro.adversary.strategies.ReplyStrategy`
    decides what actually goes on the wire — a corrupted reply, the
    honest one (strategy not applicable), or nothing (:data:`DROP`).
    """

    def __init__(
        self,
        inner: Process,
        strategy: Union[str, ReplyStrategy],
        context: StrategyContext = StrategyContext(),
    ) -> None:
        super().__init__(inner.pid)
        self.inner = inner
        self.strategy = (
            get_strategy(strategy) if isinstance(strategy, str) else strategy
        )
        self.context = context

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        for dst, reply in run_captured(self.inner, payload, src, ctx.now):
            corrupted = self.strategy.corrupt(reply, self.context)
            if corrupted is DROP:
                continue
            ctx.send(dst, reply if corrupted is None else corrupted)

    def describe_state(self) -> str:
        return (
            f"{type(self).__name__}({self.pid}, "
            f"strategy={self.strategy.name})"
        )


def corrupt(
    cluster: Cluster, index: int, strategy: Union[str, ReplyStrategy]
) -> StrategyServer:
    """Replace ``s<index>`` of ``cluster`` by a liar: a factory-fresh
    honest automaton whose every reply passes through ``strategy``."""
    liar = StrategyServer(
        cluster.honest_server(index), strategy, StrategyContext.of(cluster)
    )
    cluster.replace_server(index, liar)
    return liar


class MemoryWipeServer(ByzantineServer):
    """Delegates to an honest automaton until :meth:`wipe` is called,
    then continues from a factory-fresh state.

    This is the "loses its memory" failure of the Section 6.2 lower
    bound's intermediate runs ``pr_i``: the server behaves correctly,
    then forgets everything it ever received (including the write) and
    keeps behaving correctly from the blank state.  No signature is
    forged — information is only destroyed.
    """

    def __init__(self, pid: ProcessId, make_inner: Callable[[], Process]) -> None:
        super().__init__(pid)
        self._make_inner = make_inner
        self.inner = make_inner()
        if self.inner.pid != pid:
            raise ProtocolError("inner automaton must carry the impostor's pid")
        self.wiped = False

    def wipe(self) -> None:
        self.inner = self._make_inner()
        self.wiped = True

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        for dst, reply in run_captured(self.inner, payload, src, ctx.now):
            ctx.send(dst, reply)


class TwoFacedServer(ByzantineServer):
    """Answers ``victims`` from a shadow state that never saw any write.

    ``make_inner`` builds one honest automaton; two instances are kept:
    ``real`` (receives everything) and ``shadow`` (receives everything
    except write messages).  Replies to victims come from the shadow —
    "as if it never received a write message" — and replies to everyone
    else from the real state, matching the ``B_{R+1}`` failure of the
    Section 6.2 construction.
    """

    #: message types hidden from the shadow state
    WRITE_TYPES = (msg.FastWrite, msg.Store)

    def __init__(
        self,
        pid: ProcessId,
        make_inner: Callable[[], Process],
        victims: Iterable[ProcessId],
    ) -> None:
        super().__init__(pid)
        self.real = make_inner()
        self.shadow = make_inner()
        if self.real.pid != pid or self.shadow.pid != pid:
            raise ProtocolError("inner automata must carry the impostor's pid")
        self.victims = frozenset(victims)

    def on_message(self, payload: Any, src: ProcessId, ctx: Context) -> None:
        is_write = isinstance(payload, self.WRITE_TYPES)
        real_out = run_captured(self.real, payload, src, ctx.now)
        shadow_out: List[Tuple[ProcessId, Any]] = []
        if not is_write:
            shadow_out = run_captured(self.shadow, payload, src, ctx.now)
        if src in self.victims:
            chosen = shadow_out
        else:
            chosen = real_out
        for dst, reply in chosen:
            ctx.send(dst, reply)

    def describe_state(self) -> str:
        return (
            f"TwoFacedServer({self.pid}, victims="
            f"{{{','.join(sorted(str(v) for v in self.victims))}}})"
        )
