"""Discrete-event message-passing simulation substrate.

This package is the executable stand-in for the paper's asynchronous
system model: automata-style processes (Section 2.2's ``<p, M>`` steps),
reliable non-duplicating channels, a free-running randomized runtime for
measurements, and a scripted controller that gives lower-bound schedules
the same power the proofs give the adversary.
"""

from repro.sim.controller import ScriptedExecution
from repro.sim.events import CALL, DELIVER, Event, EventQueue, VirtualClock, run_until_quiet
from repro.sim.ids import (
    READER,
    SERVER,
    WRITER,
    ProcessId,
    client_index,
    reader,
    readers,
    server,
    servers,
    sort_ids,
    writer,
    writers,
)
from repro.sim.latency import (
    ConstantLatency,
    ExponentialLatency,
    LatencyModel,
    LogNormalLatency,
    PerLinkLatency,
    SlowServerLatency,
    UniformLatency,
)
from repro.sim.messages import Envelope
from repro.sim.network import HeldNetwork, SimNetwork
from repro.sim.process import ClientProcess, Context, Process
from repro.sim.rng import derive_seed, substream
from repro.sim.runtime import Simulation
from repro.sim.trace import TraceEvent, TraceLog

__all__ = [
    "CALL",
    "ClientProcess",
    "DELIVER",
    "ConstantLatency",
    "Context",
    "Envelope",
    "Event",
    "EventQueue",
    "ExponentialLatency",
    "HeldNetwork",
    "LatencyModel",
    "LogNormalLatency",
    "PerLinkLatency",
    "Process",
    "ProcessId",
    "READER",
    "SERVER",
    "ScriptedExecution",
    "SimNetwork",
    "Simulation",
    "SlowServerLatency",
    "TraceEvent",
    "TraceLog",
    "UniformLatency",
    "VirtualClock",
    "WRITER",
    "client_index",
    "derive_seed",
    "reader",
    "readers",
    "run_until_quiet",
    "server",
    "servers",
    "sort_ids",
    "substream",
    "writer",
    "writers",
]
