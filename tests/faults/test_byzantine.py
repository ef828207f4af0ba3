"""Tests for Byzantine server behaviours in isolation."""

import pytest

from repro.errors import ProtocolError
from repro.faults.byzantine import TwoFacedServer, corrupt, run_captured
from repro.registers import messages as msg
from repro.registers.base import ClusterConfig
from repro.registers.fast_byzantine import SPEC
from repro.registers.timestamps import (
    INITIAL_SIGNED_TAG,
    sign_tag,
    verify_tag,
)
from repro.sim.ids import reader, server, writer

CONFIG = ClusterConfig(S=8, t=1, b=1, R=2)


@pytest.fixture
def cluster():
    return SPEC.build(CONFIG, seed=2)


@pytest.fixture
def authority(cluster):
    return cluster.authority


def write_message(authority, ts=1, op_id=1):
    tag = sign_tag(authority, writer(1), ts, f"v{ts}", f"v{ts - 1}")
    return msg.FastWrite(op_id=op_id, tag=tag, r_counter=0)


def read_message(op_id=2, r_counter=1):
    return msg.FastRead(op_id=op_id, tag=INITIAL_SIGNED_TAG, r_counter=r_counter)


class TestSilent:
    def test_sends_nothing(self, cluster, authority):
        silent = corrupt(cluster, 1, "silent")
        assert run_captured(silent, write_message(authority), writer(1), 0.0) == []
        assert run_captured(silent, read_message(), reader(1), 0.0) == []

    def test_marked_byzantine(self, cluster):
        assert corrupt(cluster, 1, "silent").is_byzantine


class TestCorrupt:
    def test_installs_the_liar_it_returns(self, cluster):
        liar = corrupt(cluster, 3, "stale")
        assert cluster.server(3) is liar and liar.pid == server(3)
        assert "strategy=stale" in liar.describe_state()


class TestStaleReplay:
    def test_always_replies_initial_tag(self, cluster, authority):
        liar = corrupt(cluster, 1, "stale")
        run_captured(liar, write_message(authority, ts=5), writer(1), 0.0)
        out = run_captured(liar, read_message(), reader(1), 0.0)
        (dst, reply), = out
        assert dst == reader(1)
        assert reply.tag == INITIAL_SIGNED_TAG

    def test_stale_tag_still_authenticates(self, cluster, authority):
        """The attack is undetectable by signature checking alone."""
        liar = corrupt(cluster, 1, "stale")
        out = run_captured(liar, read_message(), reader(1), 0.0)
        (_, reply), = out
        assert verify_tag(authority, writer(1), reply.tag)


class TestSeenInflation:
    def test_inflates_seen(self, cluster):
        liar = corrupt(cluster, 1, "inflate-seen")
        out = run_captured(liar, read_message(), reader(1), 0.0)
        (_, reply), = out
        assert reply.seen == frozenset(CONFIG.client_ids)

    def test_keeps_honest_tag(self, cluster, authority):
        liar = corrupt(cluster, 1, "inflate-seen")
        run_captured(liar, write_message(authority, ts=3), writer(1), 0.0)
        out = run_captured(liar, read_message(), reader(1), 0.0)
        (_, reply), = out
        assert reply.tag.ts == 3


class TestForgedTag:
    def test_forgery_does_not_verify(self, cluster, authority):
        liar = corrupt(cluster, 1, "forge")
        out = run_captured(liar, read_message(), reader(1), 0.0)
        (_, reply), = out
        assert reply.tag.ts == 1_000_000
        assert not verify_tag(authority, writer(1), reply.tag)


class TestTwoFaced:
    def make(self, cluster, victims={reader(1)}):
        return TwoFacedServer(
            pid=server(1),
            make_inner=lambda: cluster.honest_server(1),
            victims=victims,
        )

    def test_victims_see_no_write(self, cluster, authority):
        liar = self.make(cluster)
        run_captured(liar, write_message(authority, ts=2), writer(1), 0.0)
        out_victim = run_captured(liar, read_message(op_id=2), reader(1), 0.0)
        (_, reply), = out_victim
        assert reply.tag.ts == 0  # shadow face: never saw the write

    def test_others_see_the_write(self, cluster, authority):
        liar = self.make(cluster)
        run_captured(liar, write_message(authority, ts=2), writer(1), 0.0)
        out = run_captured(liar, read_message(op_id=3), reader(2), 0.0)
        (_, reply), = out
        assert reply.tag.ts == 2  # real face

    def test_writer_gets_real_ack(self, cluster, authority):
        liar = self.make(cluster)
        out = run_captured(liar, write_message(authority, ts=2), writer(1), 0.0)
        (dst, reply), = out
        assert dst == writer(1)
        assert isinstance(reply, msg.FastWriteAck)
        assert reply.tag.ts == 2

    def test_pid_mismatch_rejected(self, cluster):
        with pytest.raises(ProtocolError):
            TwoFacedServer(
                pid=server(1),
                make_inner=lambda: cluster.honest_server(2),
                victims=set(),
            )

    def test_describe_mentions_victims(self, cluster, authority):
        liar = self.make(cluster)
        assert "r1" in liar.describe_state()


class TestCaptureContext:
    def test_inner_complete_rejected(self):
        from repro.faults.byzantine import _CaptureContext

        capture = _CaptureContext(0.0, server(1))
        with pytest.raises(ProtocolError):
            capture.complete("nope")

    def test_multicast_capture(self):
        from repro.faults.byzantine import _CaptureContext

        capture = _CaptureContext(0.0, server(1))
        capture.multicast([reader(1), reader(2)], "hello")
        assert capture.sent == [(reader(1), "hello"), (reader(2), "hello")]
