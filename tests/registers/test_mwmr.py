"""Tests for the two-round MWMR baseline and the naive fast strawman."""

import pytest

from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.registers.mwmr import SPEC as MWMR
from repro.registers.mwmr import requirement as mwmr_requirement
from repro.registers.naive_mwmr import SPEC as NAIVE
from repro.registers.timestamps import MWTimestamp
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, servers, writer
from repro.spec.linearizability import check_linearizable, check_mwmr_p1_p2
from repro.workloads import ClosedLoopWorkload, run_workload

CONFIG = ClusterConfig(S=5, t=2, R=2, W=2)


class TestMwmrBaseline:
    def test_requirement(self):
        assert mwmr_requirement(CONFIG) is None
        assert mwmr_requirement(ClusterConfig(S=4, t=2, R=1, W=2)) is not None

    def test_build_enforces(self):
        with pytest.raises(ConfigurationError):
            MWMR.build(ClusterConfig(S=4, t=2, R=1, W=2))

    def test_sequential_writers_ordered(self):
        execution = ScriptedExecution()
        MWMR.build(CONFIG).install(execution)
        w2_op = execution.invoke(writer(2), "write", "second-writer")
        execution.complete_operation(w2_op, via=servers(5))
        w1_op = execution.invoke(writer(1), "write", "first-writer")
        execution.complete_operation(w1_op, via=servers(5))
        read_op = execution.invoke(reader(1), "read")
        execution.complete_operation(read_op, via=servers(5))
        assert read_op.result == "first-writer"
        assert check_linearizable(execution.history).ok

    def test_two_rounds_each(self):
        result = run_workload(
            "mwmr",
            CONFIG,
            workload=ClosedLoopWorkload(reads_per_reader=2, writes_per_writer=2),
            seed=0,
        )
        hist = result.rounds()
        assert set(hist["read"]) == {2}
        assert set(hist["write"]) == {2}

    @pytest.mark.parametrize("seed", range(6))
    def test_contention_fuzz_linearizable(self, seed):
        result = run_workload(
            "mwmr",
            CONFIG,
            workload=ClosedLoopWorkload.contention(ops=4),
            seed=seed,
        )
        assert result.check_atomic().ok, result.history.describe()

    def test_timestamps_use_writer_index_tiebreak(self):
        execution = ScriptedExecution()
        cluster = MWMR.build(CONFIG)
        cluster.install(execution)
        op1 = execution.invoke(writer(1), "write", "a")
        op2 = execution.invoke(writer(2), "write", "b")
        execution.run_to_quiescence()
        assert op1.complete and op2.complete
        tags = {cluster.server(i).tag.ts for i in range(1, 6)}
        # concurrent writes got (1,1) and (1,2); servers hold the max
        assert MWTimestamp(1, 2) in tags


class TestNaiveStrawman:
    def test_builds_without_requirement(self):
        cluster = NAIVE.build(CONFIG)
        assert len(cluster.servers) == 5

    def test_one_round_ops(self):
        result = run_workload(
            "naive-fast-mwmr",
            CONFIG,
            workload=ClosedLoopWorkload(reads_per_reader=2, writes_per_writer=2),
            seed=0,
        )
        hist = result.rounds()
        assert set(hist["read"]) == {1}
        assert set(hist["write"]) == {1}

    def test_violates_p1_on_sequential_writes(self):
        execution = ScriptedExecution()
        NAIVE.build(CONFIG).install(execution)
        w2_op = execution.invoke(writer(2), "write", "second-writer")
        execution.complete_operation(w2_op, via=servers(5))
        w1_op = execution.invoke(writer(1), "write", "first-writer")
        execution.complete_operation(w1_op, via=servers(5))
        read_op = execution.invoke(reader(1), "read")
        execution.complete_operation(read_op, via=servers(5))
        # local counters: w1's (1,1) < w2's (1,2): the read is wrong
        assert read_op.result == "second-writer"
        verdict = check_mwmr_p1_p2(execution.history)
        assert not verdict.ok
        assert not check_linearizable(execution.history).ok
