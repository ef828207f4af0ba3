"""Sim-vs-socket parity: the same automata, two runtimes, one verdict.

Each case pushes a seeded closed-loop workload through the discrete-event
simulator *and* through real localhost sockets
(:func:`repro.net.run_net_workload`) and asserts the correctness
judgements agree — plus that the measured client round-trips over the
wire match the protocol's paper complexity (fast reads really take one
phase on a socket, ABD reads two).
"""

import pytest

from repro import ClusterConfig, get_protocol, run_workload
from repro.errors import ConfigurationError
from repro.net import build_net_cluster, run_net_workload

# (protocol, config, expected read-round support over sockets)
PARITY_CASES = [
    ("fast-crash", ClusterConfig(S=8, t=1, R=3), {1}),
    ("abd", ClusterConfig(S=5, t=1, R=3), {2}),
    ("semifast", ClusterConfig(S=5, t=2, R=6), None),
    ("regular-fast", ClusterConfig(S=5, t=2, R=4), {1}),
    ("fast-byzantine", ClusterConfig(S=10, t=1, b=1, R=2), {1}),
]


def _case_id(case):
    return case[0]


@pytest.mark.parametrize("case", PARITY_CASES, ids=_case_id)
class TestVerdictParity:
    def test_same_workload_same_verdicts(self, case):
        protocol, config, expected_rounds = case
        spec = get_protocol(protocol)
        net = run_net_workload(
            protocol, config, reads_per_reader=4, writes_per_writer=3, seed=11
        )
        sim = run_workload(protocol, config, seed=11)

        assert not net.history.incomplete_operations
        assert not sim.history.incomplete_operations

        if spec.atomic:
            net_verdict, sim_verdict = net.check_atomic(), sim.check_atomic()
        else:
            net_verdict, sim_verdict = net.check_regular(), sim.check_regular()
        assert net_verdict.ok, net_verdict.describe()
        assert sim_verdict.ok, sim_verdict.describe()
        assert net_verdict.ok == sim_verdict.ok

        if expected_rounds is not None:
            net_rounds = set(net.read_rounds())
            assert net_rounds == expected_rounds
            # The sim counts rounds off the trace; support must agree.
            sim_rounds = set(sim.rounds().get("read", {}))
            assert sim_rounds == expected_rounds

    def test_regular_always_holds(self, case):
        protocol, config, _ = case
        net = run_net_workload(
            protocol, config, reads_per_reader=2, writes_per_writer=2, seed=4
        )
        verdict = net.check_regular()
        assert verdict.ok, verdict.describe()


class TestBinarySerializerParity:
    """The binary wire codec must be observationally identical to json:
    same workload, same seed, same verdicts, same round support."""

    @pytest.mark.parametrize(
        "case", [PARITY_CASES[0], PARITY_CASES[1], PARITY_CASES[4]], ids=_case_id
    )
    def test_binary_run_matches_json_run(self, case):
        protocol, config, expected_rounds = case
        spec = get_protocol(protocol)
        runs = {
            serializer: run_net_workload(
                protocol, config,
                reads_per_reader=4, writes_per_writer=3,
                seed=11, serializer=serializer,
            )
            for serializer in ("json", "binary")
        }
        verdicts = {}
        for serializer, result in runs.items():
            assert not result.history.incomplete_operations, serializer
            verdict = (
                result.check_atomic() if spec.atomic else result.check_regular()
            )
            assert verdict.ok, f"{serializer}: {verdict.describe()}"
            verdicts[serializer] = verdict.ok
            if expected_rounds is not None:
                assert set(result.read_rounds()) == expected_rounds, serializer
        assert verdicts["binary"] == verdicts["json"]

    def test_binary_accountable_run_collects_statements(self):
        # Statements ride the binary statement section instead of the
        # json "a" slot; collection and verification must be unaffected.
        result = run_net_workload(
            "abd", ClusterConfig(S=3, t=0, R=2),
            reads_per_reader=3, writes_per_writer=2,
            seed=6, serializer="binary", accountable=True,
        )
        assert result.check_atomic().ok
        assert result.transcript is not None
        assert result.transcript.statements
        assert result.transcript.rejected == 0


class TestCrashMidConnection:
    def test_reads_terminate_after_server_crash(self):
        # Kill s2 after the second response; t=1, so the remaining
        # S - t = 7 servers must carry every later quorum — readers and
        # the writer all still terminate, and atomicity holds.
        config = ClusterConfig(S=8, t=1, R=3)
        result = run_net_workload(
            "fast-crash", config,
            reads_per_reader=4, writes_per_writer=3,
            seed=7, crash=(2, 2),
        )
        assert not result.history.incomplete_operations
        assert result.check_atomic().ok
        # The link really died: the pool recorded drops to the dead pid.
        assert result.runtime.dropped_unroutable > 0

    def test_abd_survives_crash_too(self):
        config = ClusterConfig(S=5, t=1, R=2)
        result = run_net_workload(
            "abd", config,
            reads_per_reader=3, writes_per_writer=2,
            seed=9, crash=(1, 1),
        )
        assert not result.history.incomplete_operations
        assert result.check_atomic().ok


class TestNetClusterGuards:
    def test_maxmin_is_rejected(self):
        assert get_protocol("maxmin").gossip
        with pytest.raises(Exception, match="maxmin"):
            build_net_cluster("maxmin", ClusterConfig(S=5, t=1, R=1))

    def test_gossip_is_refused_whatever_the_vector_profile(self, monkeypatch):
        """Needing server-to-server links is a protocol fact: a
        gossiping protocol the vector kernel knows nothing about is
        refused all the same."""
        from dataclasses import replace

        from repro.registers.registry import PROTOCOLS

        gossipy = replace(
            get_protocol("abd"), name="gossipy", gossip=True, vector=None
        )
        monkeypatch.setitem(PROTOCOLS, "gossipy", gossipy)
        with pytest.raises(ConfigurationError, match="server-to-server"):
            build_net_cluster("gossipy", ClusterConfig(S=5, t=1, R=1))
        quiet = replace(gossipy, name="quiet", gossip=False)
        monkeypatch.setitem(PROTOCOLS, "quiet", quiet)
        assert build_net_cluster("quiet", ClusterConfig(S=5, t=1, R=1))

    def test_same_automaton_classes_both_runtimes(self):
        # The seam promise: no subclassing, no parallel implementations.
        config = ClusterConfig(S=8, t=1, R=3)
        net_cluster = build_net_cluster("fast-crash", config)
        sim_cluster = get_protocol("fast-crash").build(config)
        assert {type(p) for p in net_cluster.servers} == {
            type(p) for p in sim_cluster.servers
        }
        assert {type(p) for p in net_cluster.readers} == {
            type(p) for p in sim_cluster.readers
        }
        assert {type(p) for p in net_cluster.writers} == {
            type(p) for p in sim_cluster.writers
        }
