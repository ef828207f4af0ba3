"""Tests for the ABD baseline."""

import pytest

from repro.errors import ConfigurationError
from repro.registers.abd import SPEC, requirement
from repro.registers.base import ClusterConfig
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, servers, writer
from repro.spec.fastness import rounds_histogram
from repro.spec.histories import BOTTOM
from repro.workloads import ClosedLoopWorkload, run_workload

from tests.registers.helpers import (
    assert_atomic_and_complete,
    run_sequence,
    spaced_ops,
)

CONFIG = ClusterConfig(S=5, t=2, R=3)


class TestRequirement:
    def test_majority_needed(self):
        assert requirement(ClusterConfig(S=5, t=2, R=3)) is None
        assert requirement(ClusterConfig(S=4, t=2, R=3)) is not None

    def test_any_reader_count_allowed(self):
        assert requirement(ClusterConfig(S=3, t=1, R=100)) is None

    def test_build_enforces(self):
        with pytest.raises(ConfigurationError):
            SPEC.build(ClusterConfig(S=4, t=2, R=1))


class TestBehaviour:
    def test_sequence_atomic(self):
        sim = run_sequence("abd", CONFIG, spaced_ops(writes=4, readers=3))
        assert_atomic_and_complete(sim)

    def test_reads_take_two_rounds(self):
        sim = run_sequence("abd", CONFIG, spaced_ops(writes=1, readers=1))
        hist = rounds_histogram(sim.trace, sim.history)
        assert hist["read"] == {2: 1}

    def test_write_back_helps_later_reads(self):
        """After a read write-back, the value reaches servers the
        original write missed — the mechanism the fast protocol forgoes."""
        cluster = SPEC.build(CONFIG)
        execution = ScriptedExecution()
        cluster.install(execution)
        # write reaches only s1..s3 (a quorum) and completes
        write_op = execution.invoke(writer(1), "write", "v")
        execution.deliver_requests(write_op, to=servers(5)[:3])
        execution.deliver_replies(write_op, from_=servers(5)[:3])
        assert write_op.complete
        # read via s3,s4,s5 — overlaps the write quorum only at s3
        read_op = execution.invoke(reader(1), "read")
        execution.complete_operation(read_op, via=servers(5)[2:])
        assert read_op.result == "v"
        # write-back stored "v" at s4, s5
        assert cluster.server(4).tag.value == "v"
        assert cluster.server(5).tag.value == "v"

    def test_read_before_write_returns_bottom(self):
        sim = run_sequence("abd", CONFIG, [(0.0, reader(1), "read", None)])
        assert sim.history.operations[0].result == BOTTOM

    @pytest.mark.parametrize("seed", range(5))
    def test_contention_fuzz_atomic(self, seed):
        result = run_workload(
            "abd",
            CONFIG,
            workload=ClosedLoopWorkload.contention(ops=6),
            seed=seed,
        )
        assert result.check_atomic().ok, result.history.describe()

    def test_survives_t_crashes(self):
        from repro.faults.crash import CrashPlan
        from repro.registers.registry import get_protocol
        from repro.sim.latency import UniformLatency
        from repro.sim.runtime import Simulation

        cluster = get_protocol("abd").build(CONFIG)
        sim = Simulation(seed=9, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        CrashPlan().add(server(1), 1.0).add(server(2), 6.0).arm(sim)
        for time, pid, kind, value in spaced_ops(writes=3, readers=2):
            sim.invoke_at(time, pid, kind, value)
        sim.run()
        assert_atomic_and_complete(sim)
