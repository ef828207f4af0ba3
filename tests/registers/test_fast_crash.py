"""Tests for the Figure 2 fast crash-model register."""

import pytest

from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.registers.fast_crash import SPEC, requirement
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, servers, writer
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.histories import BOTTOM

from tests.registers.helpers import (
    assert_atomic_and_complete,
    assert_fast,
    run_sequence,
    spaced_ops,
)

FEASIBLE = ClusterConfig(S=8, t=1, R=3)  # needs S > (R+2)t = 5


class TestRequirement:
    def test_feasible_config_accepted(self):
        assert requirement(FEASIBLE) is None

    def test_threshold_is_strict(self):
        # S = (R+2)t exactly is infeasible
        assert requirement(ClusterConfig(S=5, t=1, R=3)) is not None
        assert requirement(ClusterConfig(S=6, t=1, R=3)) is None

    def test_t_zero_any_readers(self):
        assert requirement(ClusterConfig(S=2, t=0, R=50)) is None

    def test_byzantine_rejected(self):
        assert requirement(ClusterConfig(S=20, t=2, b=1, R=1)) is not None

    def test_multi_writer_rejected(self):
        assert requirement(ClusterConfig(S=20, t=1, R=2, W=2)) is not None

    def test_build_enforces(self):
        with pytest.raises(ConfigurationError):
            SPEC.build(ClusterConfig(S=5, t=1, R=3))

    def test_build_unenforced_for_constructions(self):
        cluster = SPEC.build(ClusterConfig(S=5, t=1, R=3), enforce=False)
        assert len(cluster.servers) == 5


class TestSequentialBehaviour:
    def test_read_before_any_write_returns_bottom(self):
        sim = run_sequence("fast-crash", FEASIBLE, [(0.0, reader(1), "read", None)])
        assert sim.history.operations[0].result == BOTTOM

    def test_read_after_write_returns_value(self):
        sim = run_sequence(
            "fast-crash",
            FEASIBLE,
            [(0.0, writer(1), "write", "x"), (5.0, reader(1), "read", None)],
        )
        assert sim.history.operations[1].result == "x"

    def test_alternating_writes_and_reads(self):
        sim = run_sequence("fast-crash", FEASIBLE, spaced_ops(writes=4, readers=3))
        assert_atomic_and_complete(sim)
        assert_fast(sim)

    def test_timestamps_advance_per_write(self):
        cluster = SPEC.build(FEASIBLE)
        execution = ScriptedExecution()
        cluster.install(execution)
        for value in ("a", "b", "c"):
            op = execution.invoke(writer(1), "write", value)
            execution.run_to_quiescence()
            assert op.complete
        assert cluster.writer().ts == 4  # next timestamp after three writes
        assert cluster.server(1).tag.ts == 3

    def test_seen_set_resets_on_new_timestamp(self):
        cluster = SPEC.build(FEASIBLE)
        execution = ScriptedExecution()
        cluster.install(execution)
        op = execution.invoke(reader(1), "read")
        execution.run_to_quiescence()
        assert cluster.server(1).seen == {reader(1)}
        op = execution.invoke(writer(1), "write", "x")
        execution.run_to_quiescence()
        assert cluster.server(1).seen == {writer(1)}


class TestConcurrentScenarios:
    def test_incomplete_write_seen_by_quorum_read(self):
        """The introduction's scenario: a read must return an incomplete
        write it observes, because it cannot tell whether it completed."""
        config = ClusterConfig(S=8, t=2, R=1)
        cluster = SPEC.build(config)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "v")
        execution.deliver_requests(write_op, to=servers(8)[:6])
        read_op = execution.invoke(reader(1), "read")
        quorum = servers(8)[:6]
        execution.deliver_requests(read_op, to=quorum)
        execution.deliver_replies(read_op, from_=quorum)
        assert read_op.result == "v"
        assert check_swmr_atomicity(execution.history).ok

    def test_predicate_failure_returns_previous_value(self):
        """A read seeing maxTS at too few servers falls back to
        maxTS - 1 (the previous write's value)."""
        config = ClusterConfig(S=8, t=1, R=4)  # needs S > 6
        cluster = SPEC.build(config)
        execution = ScriptedExecution()
        cluster.install(execution)
        first = execution.invoke(writer(1), "write", "old")
        execution.run_to_quiescence()
        assert first.complete
        # second write reaches only s1, then a read sees it at just s1
        second = execution.invoke(writer(1), "write", "new")
        execution.deliver_requests(second, to=[server(1)])
        read_op = execution.invoke(reader(1), "read")
        quorum = servers(8)[:7]
        execution.deliver_requests(read_op, to=quorum)
        execution.deliver_replies(read_op, from_=quorum)
        assert read_op.complete
        # maxTS=2 at one server only: predicate fails, return value of ts 1
        assert read_op.result == "old"
        assert check_swmr_atomicity(execution.history).ok

    def test_two_readers_chained_incomplete_write(self):
        """r1 sees the incomplete write and returns it; r2 must not
        return an older value afterwards (the key atomicity case)."""
        config = ClusterConfig(S=8, t=1, R=3)
        cluster = SPEC.build(config)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "v")
        execution.deliver_requests(write_op, to=servers(8)[:7])
        read1 = execution.invoke(reader(1), "read")
        quorum1 = servers(8)[:7]
        execution.deliver_requests(read1, to=quorum1)
        execution.deliver_replies(read1, from_=quorum1)
        assert read1.result == "v"
        # r2 misses s1 (sees s2..s8); must still return "v"
        read2 = execution.invoke(reader(2), "read")
        quorum2 = servers(8)[1:]
        execution.deliver_requests(read2, to=quorum2)
        execution.deliver_replies(read2, from_=quorum2)
        assert read2.result == "v"
        assert check_swmr_atomicity(execution.history).ok


class TestCrashTolerance:
    def test_survives_t_server_crashes(self):
        config = ClusterConfig(S=9, t=2, R=2)
        from repro.faults.crash import CrashPlan
        from repro.registers.registry import get_protocol
        from repro.sim.latency import UniformLatency
        from repro.sim.runtime import Simulation

        cluster = get_protocol("fast-crash").build(config)
        sim = Simulation(seed=11, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        CrashPlan().add(server(1), 2.0).add(server(2), 8.0).arm(sim)
        for time, pid, kind, value in spaced_ops(writes=3, readers=2):
            sim.invoke_at(time, pid, kind, value)
        sim.run()
        assert_atomic_and_complete(sim)

    def test_writer_crash_mid_write_preserves_atomicity(self):
        config = ClusterConfig(S=8, t=1, R=3)
        from repro.registers.registry import get_protocol
        from repro.sim.latency import UniformLatency
        from repro.sim.runtime import Simulation

        cluster = get_protocol("fast-crash").build(config)
        sim = Simulation(seed=4, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        sim.invoke_at(0.0, writer(1), "write", "first")
        # second write reaches only 3 of 8 servers, then the writer dies
        sim.at(5.0, lambda: sim.crash_after_sends(writer(1), 3))
        sim.invoke_at(5.0, writer(1), "write", "second")
        for index, r in enumerate((1, 2, 3, 1, 2, 3)):
            sim.invoke_at(8.0 + 2.0 * index, reader(r), "read", None)
        sim.run()
        verdict = check_swmr_atomicity(sim.history)
        assert verdict.ok, verdict.describe() + "\n" + sim.history.describe()

    def test_reader_crash_harmless(self):
        config = ClusterConfig(S=8, t=1, R=3)
        from repro.registers.registry import get_protocol
        from repro.sim.runtime import Simulation
        from repro.sim.latency import UniformLatency

        cluster = get_protocol("fast-crash").build(config)
        sim = Simulation(seed=5, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        sim.invoke_at(0.0, writer(1), "write", "x")
        sim.invoke_at(3.0, reader(1), "read", None)
        sim.crash_at(3.1, reader(1))  # dies mid-read
        sim.invoke_at(6.0, reader(2), "read", None)
        sim.run()
        complete = [op for op in sim.history.complete_operations]
        assert len(complete) == 2  # write + r2's read
        assert check_swmr_atomicity(sim.history).ok


class TestFuzz:
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_runs_atomic_and_fast(self, seed):
        from repro.workloads import ClosedLoopWorkload, run_workload
        from repro.sim.latency import ExponentialLatency

        config = ClusterConfig(S=9, t=2, R=2)
        result = run_workload(
            "fast-crash",
            config,
            workload=ClosedLoopWorkload.contention(ops=8),
            seed=seed,
            latency=ExponentialLatency(mean=1.0),
        )
        assert result.check_atomic().ok, result.history.describe()
        assert result.check_fast().ok
