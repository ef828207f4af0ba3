"""Scripted concurrency scenarios for the Figure 5 protocol.

The Byzantine analogues of the fast-crash scripted tests: incomplete
signed writes observed by overlapping quorums, predicate fallbacks, and
in-band write-back propagation, all under adversarial delivery control.
"""


from repro.registers.base import ClusterConfig
from repro.registers.fast_byzantine import SPEC
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, servers, writer
from repro.spec.atomicity import check_swmr_atomicity

# S > (R+2)t + (R+1)b = 4 + 3 = 7
CONFIG = ClusterConfig(S=8, t=1, b=1, R=2)


def make_execution(config=CONFIG):
    cluster = SPEC.build(config)
    execution = ScriptedExecution()
    cluster.install(execution)
    return cluster, execution


class TestIncompleteSignedWrites:
    def test_read_returns_incomplete_write_it_observes(self):
        cluster, execution = make_execution()
        write_op = execution.invoke(writer(1), "write", "v")
        execution.deliver_requests(write_op, to=servers(8)[:7])
        read_op = execution.invoke(reader(1), "read")
        quorum = servers(8)[:7]
        execution.deliver_requests(read_op, to=quorum)
        execution.deliver_replies(read_op, from_=quorum)
        assert read_op.result == "v"
        # second reader misses s1 but the chain must not regress
        read2 = execution.invoke(reader(2), "read")
        quorum2 = servers(8)[1:]
        execution.deliver_requests(read2, to=quorum2)
        execution.deliver_replies(read2, from_=quorum2)
        assert read2.result == "v"
        assert check_swmr_atomicity(execution.history).ok

    def test_predicate_fallback_returns_previous_value(self):
        cluster, execution = make_execution()
        first = execution.invoke(writer(1), "write", "old")
        execution.run_to_quiescence()
        assert first.complete
        second = execution.invoke(writer(1), "write", "new")
        execution.deliver_requests(second, to=[server(1)])
        read_op = execution.invoke(reader(1), "read")
        quorum = servers(8)[:7]
        execution.deliver_requests(read_op, to=quorum)
        execution.deliver_replies(read_op, from_=quorum)
        # ts=2 at one server only: predicate fails, return value of ts 1
        assert read_op.result == "old"
        assert check_swmr_atomicity(execution.history).ok

    def test_write_back_via_read_message(self):
        """The reader's next read carries its maxTS tag in-band and
        servers adopt it — Figure 5's signed write-back."""
        cluster, execution = make_execution()
        write_op = execution.invoke(writer(1), "write", "v")
        execution.deliver_requests(write_op, to=servers(8)[:7])
        read1 = execution.invoke(reader(1), "read")
        quorum = servers(8)[:7]
        execution.deliver_requests(read1, to=quorum)
        execution.deliver_replies(read1, from_=quorum)
        assert read1.result == "v"
        # s8 never saw the write; r1's next read message teaches it
        assert cluster.server(8).tag.ts == 0
        read2 = execution.invoke(reader(1), "read")
        execution.deliver_requests(read2, to=[server(8)])
        assert cluster.server(8).tag.ts == 1
        assert cluster.server(8).tag.value == "v"

    def test_tampered_write_back_rejected(self):
        """A (hypothetically) forged tag in a read message is discarded
        whole by honest servers: the server state stays clean."""
        from repro.crypto.signatures import SignatureAuthority
        from repro.registers import messages as msg
        from repro.registers.timestamps import SignedValueTag
        from repro.faults.byzantine import run_captured

        cluster, _ = make_execution()
        target = cluster.server(1)
        rogue_authority = SignatureAuthority(seed=999)
        rogue_authority.register(writer(1))
        forged = SignedValueTag(
            ts=99,
            value="evil",
            prev_value="evil",
            signed=rogue_authority.sign(writer(1), (99, "evil", "evil")),
        )
        out = run_captured(
            target,
            msg.FastRead(op_id=1, tag=forged, r_counter=1),
            reader(1),
            0.0,
        )
        assert out == []  # message ignored entirely
        assert target.tag.ts == 0
