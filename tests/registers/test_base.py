"""Tests for shared register plumbing."""

import pytest

from repro.errors import ConfigurationError
from repro.registers import messages as msg
from repro.registers.base import AckSet, ClusterConfig, StorageServer
from repro.registers.fast_crash import SPEC
from repro.registers.timestamps import INITIAL_TAG, ValueTag
from repro.sim.ids import reader, server, writer
from repro.faults.byzantine import run_captured


class TestClusterConfig:
    def test_quorum_is_s_minus_t(self):
        assert ClusterConfig(S=7, t=2, R=1).quorum == 5

    def test_id_lists(self):
        config = ClusterConfig(S=3, t=1, R=2, W=1)
        assert [str(p) for p in config.server_ids] == ["s1", "s2", "s3"]
        assert [str(p) for p in config.reader_ids] == ["r1", "r2"]
        assert [str(p) for p in config.client_ids] == ["w1", "r1", "r2"]

    def test_rejects_zero_servers(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(S=0, t=0, R=1)

    def test_rejects_t_ge_s(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(S=3, t=3, R=1)

    def test_rejects_negative_t(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(S=3, t=-1, R=1)

    def test_rejects_b_above_t(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(S=9, t=1, b=2, R=1)

    def test_rejects_no_writers(self):
        with pytest.raises(ConfigurationError):
            ClusterConfig(S=3, t=1, R=1, W=0)

    def test_frozen(self):
        config = ClusterConfig(S=3, t=1, R=1)
        with pytest.raises(AttributeError):
            config.S = 5


class TestAckSet:
    def test_fires_exactly_once_at_threshold(self):
        acks = AckSet(2)
        assert not acks.add(server(1), "a")
        assert acks.add(server(2), "b")
        assert not acks.add(server(3), "c")

    def test_duplicate_sender_ignored(self):
        acks = AckSet(2)
        acks.add(server(1), "a")
        assert not acks.add(server(1), "a2")
        assert acks.count == 1

    def test_payloads_and_senders(self):
        acks = AckSet(3)
        acks.add(server(1), "x")
        acks.add(server(2), "y")
        assert sorted(acks.payloads()) == ["x", "y"]
        assert server(1) in acks.senders()

    def test_threshold_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            AckSet(0)


class TestStorageServer:
    def run(self, store, payload, src=reader(1)):
        return run_captured(store, payload, src, now=0.0)

    def test_query_returns_current_tag(self):
        store = StorageServer(server(1))
        out = self.run(store, msg.Query(op_id=1))
        assert out == [(reader(1), msg.QueryReply(op_id=1, tag=INITIAL_TAG))]

    def test_store_adopts_higher_tag(self):
        store = StorageServer(server(1))
        tag = ValueTag(3, "v", "p")
        self.run(store, msg.Store(op_id=1, tag=tag))
        assert store.tag == tag

    def test_store_ignores_lower_tag_but_acks(self):
        store = StorageServer(server(1))
        high = ValueTag(5, "new", "old")
        low = ValueTag(2, "stale", "older")
        self.run(store, msg.Store(op_id=1, tag=high))
        out = self.run(store, msg.Store(op_id=2, tag=low))
        assert store.tag == high
        assert out == [(reader(1), msg.StoreAck(op_id=2, ts=2))]

    def test_unknown_message_ignored(self):
        store = StorageServer(server(1))
        assert self.run(store, "garbage") == []


class TestCluster:
    def test_install_registers_all(self):
        from repro.sim.controller import ScriptedExecution

        config = ClusterConfig(S=5, t=1, R=2)
        cluster = SPEC.build(config)
        execution = ScriptedExecution()
        cluster.install(execution)
        assert len(execution.processes) == 5 + 2 + 1

    def test_accessors(self):
        cluster = SPEC.build(ClusterConfig(S=5, t=1, R=2))
        assert cluster.server(2).pid == server(2)
        assert cluster.reader(1).pid == reader(1)
        assert cluster.writer().pid == writer(1)

    @pytest.mark.parametrize("protocol", ["fast-crash", "fast-byzantine", "abd", "maxmin"])
    def test_honest_server_is_a_fresh_copy_of_the_assembled_one(self, protocol):
        from repro.registers.registry import get_protocol
        from repro.sim.state import canon_process

        cluster = get_protocol(protocol).build(ClusterConfig(S=5, t=1, R=2))
        for index in (1, 5):
            fresh, assembled = cluster.honest_server(index), cluster.server(index)
            assert fresh is not assembled
            assert type(fresh) is type(assembled)
            assert canon_process(fresh) == canon_process(assembled)
        assert cluster.honest_server(2) is not cluster.honest_server(2)

    def test_replace_server_checks_pid(self):
        cluster = SPEC.build(ClusterConfig(S=5, t=1, R=2))
        impostor = StorageServer(server(3))
        cluster.replace_server(3, impostor)
        assert cluster.server(3) is impostor
        with pytest.raises(ConfigurationError):
            cluster.replace_server(2, StorageServer(server(1)))
