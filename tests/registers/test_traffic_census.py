"""Traffic census: the types every message field really carries.

The message dataclasses are the wire schema (``repro.net.codec`` decodes
each field by its annotation), so the annotations must admit what the
registry actually sends.  This records ``(class, field, type)`` for
every typed field of every message sent — through tags into their
timestamp and signature slots — over every protocol on every scenario
under two latency models, every replay of the counterexample corpus
(lies included), and every reply strategy of a lying server.  The set
is pinned as a literal, so a new type shows up as a visible diff.
"""

import dataclasses
import pathlib
import typing
from typing import Any

import pytest

from repro.adversary.strategies import STRATEGIES
from repro.explore import Counterexample, replay_counterexample
from repro.faults.byzantine import corrupt
from repro.registers.base import ClusterConfig
from repro.registers.registry import PROTOCOLS
from repro.sim.controller import ScriptedExecution
from repro.sim.latency import ConstantLatency, ExponentialLatency
from repro.sim.process import Context
from repro.workloads.runner import run_scenario, run_workload
from repro.workloads.scenarios import SCENARIOS, get_scenario

CORPUS = sorted(
    (pathlib.Path(__file__).parent.parent / "data" / "counterexamples").glob("*.json")
)

OBSERVED = {
    ("FastRead", "op_id", "int"),
    ("FastRead", "r_counter", "int"),
    ("FastRead", "tag", "SignedValueTag"),
    ("FastRead", "tag", "ValueTag"),
    ("FastReadAck", "op_id", "int"),
    ("FastReadAck", "r_counter", "int"),
    ("FastReadAck", "seen", "frozenset[ProcessId]"),
    ("FastReadAck", "tag", "SignedValueTag"),
    ("FastReadAck", "tag", "ValueTag"),
    ("FastWrite", "op_id", "int"),
    ("FastWrite", "r_counter", "int"),
    ("FastWrite", "tag", "SignedValueTag"),
    ("FastWrite", "tag", "ValueTag"),
    ("FastWriteAck", "op_id", "int"),
    ("FastWriteAck", "r_counter", "int"),
    ("FastWriteAck", "seen", "frozenset[ProcessId]"),
    ("FastWriteAck", "tag", "SignedValueTag"),
    ("FastWriteAck", "tag", "ValueTag"),
    ("MWTimestamp", "num", "int"),
    ("MWTimestamp", "wid", "int"),
    ("MaxMinGossip", "op_id", "int"),
    ("MaxMinGossip", "r_counter", "int"),
    ("MaxMinGossip", "reader", "ProcessId"),
    ("MaxMinGossip", "tag", "ValueTag"),
    ("MaxMinRead", "op_id", "int"),
    ("MaxMinRead", "r_counter", "int"),
    ("MaxMinReadAck", "op_id", "int"),
    ("MaxMinReadAck", "r_counter", "int"),
    ("MaxMinReadAck", "tag", "ValueTag"),
    ("Query", "op_id", "int"),
    ("QueryReply", "op_id", "int"),
    ("QueryReply", "tag", "ValueTag"),
    ("SignedPayload", "signer", "ProcessId"),
    ("SignedPayload", "tag", "bytes"),
    ("SignedValueTag", "signed", "NoneType"),
    ("SignedValueTag", "signed", "SignedPayload"),
    ("SignedValueTag", "ts", "int"),
    ("Store", "op_id", "int"),
    ("Store", "tag", "ValueTag"),
    ("StoreAck", "op_id", "int"),
    ("StoreAck", "ts", "MWTimestamp"),
    ("StoreAck", "ts", "int"),
    ("ValueTag", "ts", "MWTimestamp"),
    ("ValueTag", "ts", "int"),
}


def _type_name(value: Any) -> str:
    if type(value) is frozenset:
        return f"frozenset[{'|'.join(sorted({type(item).__name__ for item in value}))}]"
    return type(value).__name__


def _census(record: set, value: Any) -> None:
    """Add a row per typed field of the schema dataclass ``value``, and
    recurse into the schema dataclasses those fields hold."""
    cls = type(value)
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        if hints[field.name] is Any:
            continue  # register values and signed payloads are the caller's
        item = getattr(value, field.name)
        record.add((cls.__name__, field.name, _type_name(item), hints[field.name]))
        if dataclasses.is_dataclass(item):
            _census(record, item)


@pytest.fixture
def census(monkeypatch):
    """Every message sent by any automaton, and every lie put in
    transit by the explorer, lands in the returned set."""
    record: set = set()
    send = Context.send
    corrupt_reply = ScriptedExecution.corrupt_reply

    def counted_send(self, dst, payload):
        _census(record, payload)
        send(self, dst, payload)

    def counted_corrupt_reply(self, env, payload):
        _census(record, payload)
        return corrupt_reply(self, env, payload)

    monkeypatch.setattr(Context, "send", counted_send)
    monkeypatch.setattr(ScriptedExecution, "corrupt_reply", counted_corrupt_reply)
    return record


def _config(name: str, b: int = 0) -> ClusterConfig:
    """Feasible for every protocol at ``b = 0``, and for Figure 5 at ``b = 1``."""
    W = 2 if PROTOCOLS[name].multi_writer else 1
    return ClusterConfig(S=5 + b, t=1, R=1, W=W, b=b)


def _admitted(type_name: str, hint: Any) -> bool:
    if hint is int:
        return type_name == "int"
    if typing.get_origin(hint) is frozenset:
        return type_name in ("frozenset[]", f"frozenset[{typing.get_args(hint)[0].__name__}]")
    allowed = typing.get_args(hint) or (hint,)
    return type_name in {arg.__name__ for arg in allowed}


def test_every_observed_type_is_declared(census):
    for name in PROTOCOLS:
        for scenario in SCENARIOS:
            for latency in (ConstantLatency(), ExponentialLatency()):
                run_scenario(
                    name, _config(name), scenario=scenario, seed=3,
                    latency=latency, record_trace=False,
                )
    for path in CORPUS:
        assert replay_counterexample(Counterexample.from_json(path.read_text()))["violates"]
    for name in PROTOCOLS:
        b = 1 if name == "fast-byzantine" else 0
        for strategy in STRATEGIES:
            run_workload(
                name, _config(name, b), workload=get_scenario("smoke").workload,
                seed=5, cluster_hook=lambda cluster: corrupt(cluster, 1, strategy),
                record_trace=False, enforce=False,
            )
    undeclared = sorted(
        row[:3] for row in census if not _admitted(row[2], row[3])
    )
    assert undeclared == []
    assert {row[:3] for row in census} == OBSERVED
