"""Tests for the semifast extension register."""

import pytest

from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.registers.semifast import SPEC, fast_read_ratio, requirement
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, writer
from repro.sim.latency import UniformLatency
from repro.sim.runtime import Simulation
from repro.spec.atomicity import check_swmr_atomicity
from repro.workloads import ClosedLoopWorkload, run_workload

from tests.registers.helpers import (
    assert_atomic_and_complete,
    run_sequence,
    spaced_ops,
)

# Many readers on a small cluster: far beyond Figure 2's R < S/t - 2.
CONFIG = ClusterConfig(S=5, t=2, R=6)


class TestRequirement:
    def test_majority_any_readers(self):
        assert requirement(ClusterConfig(S=5, t=2, R=100)) is None
        assert requirement(ClusterConfig(S=4, t=2, R=1)) is not None

    def test_build_enforces(self):
        with pytest.raises(ConfigurationError):
            SPEC.build(ClusterConfig(S=4, t=2, R=1))


class TestAdaptiveRounds:
    def test_quiet_read_is_one_round(self):
        """After a fully propagated write, reads find a uniform quorum
        and return in one round."""
        cluster = SPEC.build(CONFIG)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "v")
        execution.run_to_quiescence()
        read_op = execution.invoke(reader(1), "read")
        execution.run_to_quiescence()
        assert read_op.result == "v"
        assert fast_read_ratio(cluster) == 1.0

    def test_contended_read_falls_back_to_write_back(self):
        """A read racing an incomplete write takes the two-round path —
        and thereby makes the value durable for later readers."""
        cluster = SPEC.build(CONFIG)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "v")
        execution.deliver_requests(write_op, to=[server(1)])  # incomplete
        read_op = execution.invoke(reader(1), "read")
        via = [server(1), server(2), server(3)]
        execution.complete_operation(read_op, via=via)
        assert read_op.result == "v"
        assert cluster.readers[0].slow_reads == 1
        # write-back propagated the value to the quorum
        assert cluster.server(2).tag.value == "v"
        # a later reader missing s1 still sees it
        read2 = execution.invoke(reader(2), "read")
        via2 = [server(2), server(3), server(4)]
        execution.complete_operation(read2, via=via2)
        assert read2.result == "v"
        assert check_swmr_atomicity(execution.history).ok

    def test_rounds_match_counters(self):
        result = run_workload(
            "semifast",
            CONFIG,
            workload=ClosedLoopWorkload(reads_per_reader=4, writes_per_writer=3),
            seed=1,
            latency=UniformLatency(0.5, 1.5),
        )
        rounds = result.rounds()["read"]
        # 1-round and 2-round reads together cover all reads
        assert set(rounds) <= {1, 2}
        assert result.check_atomic().ok


class TestAtomicityBeyondThreshold:
    def test_sequential_ops(self):
        sim = run_sequence("semifast", CONFIG, spaced_ops(writes=4, readers=3))
        assert_atomic_and_complete(sim)

    @pytest.mark.parametrize("seed", range(8))
    def test_contention_fuzz(self, seed):
        result = run_workload(
            "semifast",
            CONFIG,
            workload=ClosedLoopWorkload.contention(ops=8),
            seed=seed,
            latency=UniformLatency(0.2, 2.0),
        )
        assert result.check_atomic().ok, result.history.describe()

    @pytest.mark.parametrize("seed", range(4))
    def test_fuzz_with_writer_crash(self, seed):
        from repro.registers.registry import get_protocol

        cluster = get_protocol("semifast").build(CONFIG)
        sim = Simulation(seed=seed, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        sim.invoke_at(0.0, writer(1), "write", 1)
        sim.at(4.0, lambda: sim.crash_after_sends(writer(1), 2))
        sim.invoke_at(4.0, writer(1), "write", 2)
        for index in range(10):
            sim.invoke_at(6.0 + 2.0 * index, reader(1 + index % 6), "read", None)
        sim.run()
        verdict = check_swmr_atomicity(sim.history)
        assert verdict.ok, verdict.describe() + "\n" + sim.history.describe()


class TestFastRatio:
    def test_read_mostly_workload_mostly_fast(self):
        result = run_workload(
            "semifast",
            CONFIG,
            workload=ClosedLoopWorkload(
                reads_per_reader=10, writes_per_writer=2, think_time_mean=3.0
            ),
            seed=2,
            latency=UniformLatency(0.5, 1.5),
        )
        assert result.check_atomic().ok
        # ratio accessible through the cluster hook is verified in the
        # benchmark; here we check the counters exist and sum correctly
        rounds = result.rounds()["read"]
        total = sum(rounds.values())
        assert total == 60
        assert rounds.get(1, 0) > rounds.get(2, 0)  # mostly fast

    def test_ratio_helper_empty_cluster(self):
        cluster = SPEC.build(CONFIG)
        assert fast_read_ratio(cluster) == 0.0
