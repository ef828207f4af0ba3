"""The baselines are one query/store client family, not seven automata.

Every non-fast protocol is the shared :class:`QuorumClient` plus the
hooks its paragraph of the paper states, so the histories, message
counts and feasibility texts recorded *before* the family existed must
still come out bit for bit, clones must be the class they copied, and
the shared ``on_message`` must ignore what each hand-written one
ignored.  Re-record with ``python tests/registers/test_baseline_family.py``
only for an intentional semantic change.
"""

import hashlib
from itertools import product

import pytest

from repro.registers import messages as msg
from repro.registers import abd, maxmin, mwmr, naive_mwmr, regular, semifast, swsr
from repro.registers.base import ClusterConfig
from repro.registers.registry import PROTOCOLS
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, servers, writer
from repro.sim.latency import ExponentialLatency
from repro.workloads import run_scenario

BASELINES = {
    "abd": ClusterConfig(S=5, t=2, R=3),
    "maxmin": ClusterConfig(S=5, t=2, R=3),
    "swsr-fast": ClusterConfig(S=5, t=2, R=1),
    "regular-fast": ClusterConfig(S=5, t=2, R=3),
    "semifast": ClusterConfig(S=5, t=2, R=3),
    "mwmr": ClusterConfig(S=5, t=2, R=3, W=2),
    "naive-fast-mwmr": ClusterConfig(S=5, t=2, R=3, W=2),
}
SCENARIOS = ("smoke", "contention", "faulty", "fault-burst")
SEEDS = range(4)

#: Recorded at the commit before the family (hand-written automata).
DIGESTS = {
    ("abd", "smoke"): "5d35d7179876368a",
    ("abd", "contention"): "c6cafdb1ef373b9a",
    ("abd", "faulty"): "b8d6e873e9a5a477",
    ("abd", "fault-burst"): "e6c0992c434bbe69",
    ("maxmin", "smoke"): "a7f02fd09a61af6e",
    ("maxmin", "contention"): "04674401a54e16b1",
    ("maxmin", "faulty"): "231343aaef7b33c5",
    ("maxmin", "fault-burst"): "81bc124df214f298",
    ("swsr-fast", "smoke"): "f32b90193d60246d",
    ("swsr-fast", "contention"): "c6bc68281f35ab75",
    ("swsr-fast", "faulty"): "82c9ad178d945098",
    ("swsr-fast", "fault-burst"): "dc2d3c21c55495cd",
    ("regular-fast", "smoke"): "17617f033c20826b",
    ("regular-fast", "contention"): "5300600a45be2d97",
    ("regular-fast", "faulty"): "b354a64ab38529e7",
    ("regular-fast", "fault-burst"): "1602fada46cac199",
    ("semifast", "smoke"): "44f440418134b791",
    ("semifast", "contention"): "55a248a20ebdb305",
    ("semifast", "faulty"): "194978efc22a6b4b",
    ("semifast", "fault-burst"): "179444d9ff71f5fb",
    ("mwmr", "smoke"): "c319c8c9334f52ce",
    ("mwmr", "contention"): "c49f29dce662aefc",
    ("mwmr", "faulty"): "6ff75165dfcd20fc",
    ("mwmr", "fault-burst"): "36011d49a2d2aa12",
    ("naive-fast-mwmr", "smoke"): "491a9612776389c3",
    ("naive-fast-mwmr", "contention"): "47b3f7a76b757ff1",
    ("naive-fast-mwmr", "faulty"): "fc01fdedfbb4529d",
    ("naive-fast-mwmr", "fault-burst"): "f45a61e7924efd99",
}

#: sha256 over ``requirement(config)`` of every protocol for every
#: valid ``(S, t, R, W, b)`` with ``S <= 6``, same provenance.
REQUIREMENT_DIGEST = (
    "79bea4a2ead67648f21e443e71404623ea9a12928ce8f8564b183d5afdb95cd8"
)


def scenario_digest(protocol: str, scenario: str) -> str:
    hasher = hashlib.sha256()
    for seed in SEEDS:
        # Random latencies: under the constant default no quorum ever
        # disagrees and semifast would never take its slow path.
        result = run_scenario(
            protocol, BASELINES[protocol], scenario, seed=seed,
            latency=ExponentialLatency(mean=1.0),
        )
        for op in result.history.operations:
            hasher.update(
                f"{op.op_id}|{op.proc}|{op.kind}|{op.value!r}|{op.invoked_at!r}|"
                f"{op.result!r}|{op.responded_at!r}".encode("utf8")
            )
        hasher.update(f"messages={result.messages_sent()}".encode("utf8"))
    return hasher.hexdigest()[:16]


def requirement_digest() -> str:
    hasher = hashlib.sha256()
    for name, spec in PROTOCOLS.items():
        for S, R, W in product(range(1, 7), range(0, 4), range(1, 3)):
            for t in range(S):
                for b in range(t + 1):
                    config = ClusterConfig(S=S, t=t, R=R, W=W, b=b)
                    hasher.update(f"{name}|{config}|{spec.requirement(config)}".encode("utf8"))
    return hasher.hexdigest()


@pytest.mark.parametrize("scenario", SCENARIOS)
@pytest.mark.parametrize("protocol", list(BASELINES))
def test_histories_and_message_counts_match_the_hand_written_automata(protocol, scenario):
    assert scenario_digest(protocol, scenario) == DIGESTS[protocol, scenario]


def test_requirement_texts_are_unchanged():
    assert requirement_digest() == REQUIREMENT_DIGEST


def test_clones_are_the_class_they_copied():
    assert maxmin.SPEC.automata.writer is abd.AbdWriter
    assert mwmr.SPEC.automata.reader is abd.AbdReader
    assert naive_mwmr.SPEC.automata.reader is regular.RegularReader
    for module in (swsr, regular, semifast):
        assert module.SPEC.automata.writer is abd.AbdWriter


TWO_PHASE = ClusterConfig(S=5, t=2, R=1, W=2)


@pytest.mark.parametrize(
    "build, config, client, kind, result",
    [
        (abd.SPEC.build, ClusterConfig(S=5, t=2, R=1), reader(1), "read", "a"),
        (semifast.SPEC.build, ClusterConfig(S=5, t=2, R=1), reader(1), "read", "a"),
        (mwmr.SPEC.build, TWO_PHASE, reader(1), "read", "a"),
        (mwmr.SPEC.build, TWO_PHASE, writer(2), "write", "ok"),
    ],
)
def test_two_phase_client_ignores_other_phase_and_stale_acks(
    build, config, client, kind, result
):
    """Quorum is three of five: had any of the three bogus replies been
    counted, a phase would end one delivery early."""
    s1, s2, s3, s4, s5 = everyone = servers(5)
    execution = ScriptedExecution()
    build(config).install(execution)
    stale_ts = execution.process(s5).tag.ts
    write = execution.invoke(writer(1), "write", "a")
    execution.complete_operation(write, via=[s1, s2, s3])  # s4, s5 stay behind

    op = execution.invoke(client, kind, "b" if kind == "write" else None)
    execution.deliver_requests(op, to=everyone)
    execution.deliver_replies(op, from_=[s1, s4])
    # Query phase: a store ack (forged: none is due yet) is not a reply.
    (held,) = execution.replies_of(op, from_=[s5])
    forged = msg.StoreAck(op_id=op.op_id, ts=stale_ts)
    execution.deliver(execution.corrupt_reply(held, forged))
    assert not execution.requests_of(op)
    execution.deliver_replies(op, from_=[s2])  # {s1, s4, s2} disagree: store
    assert len(execution.requests_of(op)) == 5

    # Store phase: s3's query reply straggles in, s1 acks a stale timestamp.
    execution.deliver_replies(op, from_=[s3])
    execution.deliver_requests(op, to=[s1])
    (ack,) = execution.replies_of(op, from_=[s1])
    execution.deliver(execution.corrupt_reply(ack, forged))
    execution.deliver_requests(op, to=[s2, s3])
    execution.deliver_replies(op, from_=[s2, s3])
    assert not op.complete
    execution.deliver_requests(op, to=[s4])
    execution.deliver_replies(op, from_=[s4])
    assert op.complete and op.result == result


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    for protocol, scenario in product(BASELINES, SCENARIOS):
        print(f'    ("{protocol}", "{scenario}"): "{scenario_digest(protocol, scenario)}",')
    print(f'REQUIREMENT_DIGEST = "{requirement_digest()}"')
