"""Networked runtime: the register protocols over real asyncio sockets.

The package is the second full implementation of the
:class:`repro.runtime.Runtime` seam (the simulator being the first).
The *same* automaton classes from :mod:`repro.registers` run unmodified;
what changes is the medium — length-prefixed frames on TCP instead of a
virtual-time event queue.

Modules:

* :mod:`repro.net.codec` — wire framing (length prefix; one body
  format, the hand-rolled ``repro-bin/v2``) over the message registry of
  :mod:`repro.registers.messages`, plus the connection preamble that
  refuses a peer of another format and the zero-copy
  :class:`FrameBuffer`.
* :mod:`repro.net.runtime` — :class:`AsyncRuntime`, the seam
  implementation: monotonic clock, route-table delivery, client-phase
  (round) accounting; and :class:`FrameLink`, the one socket endpoint
  both sides' connections subclass.
* :mod:`repro.net.server` — one server automaton behind one listening
  socket, connections as asyncio protocols.
* :mod:`repro.net.client` — :class:`ClientPool`, multiplexing many
  virtual client automata over ``S`` connections.
* :mod:`repro.net.loadgen` — the sharded load generator and its merged,
  verdict-checked :class:`LoadReport`.
* :mod:`repro.net.harness` — spawned server clusters (OS processes) and
  the in-process parity-test runner.
* :mod:`repro.net.chaos` — deterministic wire-level fault injection:
  declarative replayable :class:`FaultPlan`, the frame-layer
  :class:`ChaosInjector`, the :class:`DegradationLedger`, and reconnect
  :class:`BackoffPolicy`.
"""

from repro.net.chaos import (
    BackoffPolicy,
    ChaosInjector,
    DegradationLedger,
    FaultPlan,
    LinkFaults,
    Partition,
    ServerEvent,
    build_run_record,
    verify_run_record,
)
from repro.net.codec import (
    BINARY_FORMAT,
    Codec,
    PREAMBLE,
    FrameBuffer,
    preamble_serializer,
)
from repro.net.client import ClientPool
from repro.net.harness import (
    ChaosEventDriver,
    NetRunResult,
    ServerCluster,
    run_net_workload,
)
from repro.net.loadgen import (
    LoadReport,
    LoadSpec,
    run_load,
    sim_rounds_check,
)
from repro.net.runtime import AsyncRuntime
from repro.net.server import (
    NetServer,
    build_net_cluster,
    start_servers,
)

__all__ = [
    "AsyncRuntime",
    "BINARY_FORMAT",
    "BackoffPolicy",
    "ChaosEventDriver",
    "ChaosInjector",
    "ClientPool",
    "Codec",
    "DegradationLedger",
    "FaultPlan",
    "FrameBuffer",
    "LinkFaults",
    "LoadReport",
    "LoadSpec",
    "NetRunResult",
    "NetServer",
    "PREAMBLE",
    "Partition",
    "ServerCluster",
    "ServerEvent",
    "build_net_cluster",
    "build_run_record",
    "preamble_serializer",
    "run_load",
    "run_net_workload",
    "sim_rounds_check",
    "start_servers",
    "verify_run_record",
]
