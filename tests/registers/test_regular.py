"""Tests for the fast regular register (Section 8)."""

import pytest

from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.registers.regular import SPEC, requirement
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, writer
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.histories import BOTTOM
from repro.spec.regularity import check_swmr_regularity
from repro.workloads import ClosedLoopWorkload, run_workload

from tests.registers.helpers import (
    assert_atomic_and_complete,
    assert_fast,
    run_sequence,
    spaced_ops,
)

CONFIG = ClusterConfig(S=5, t=2, R=4)


class TestRequirement:
    def test_any_reader_count(self):
        assert requirement(ClusterConfig(S=5, t=2, R=100)) is None

    def test_majority_needed(self):
        assert requirement(ClusterConfig(S=4, t=2, R=1)) is not None

    def test_build_enforces(self):
        with pytest.raises(ConfigurationError):
            SPEC.build(ClusterConfig(S=4, t=2, R=1))


class TestRegularButNotAtomic:
    def test_sequential_runs_regular_and_atomic(self):
        sim = run_sequence("regular-fast", CONFIG, spaced_ops(writes=3, readers=2))
        assert_atomic_and_complete(sim)  # no concurrency: atomic too
        assert_fast(sim)

    def test_new_old_inversion_scripted(self):
        """The canonical regular-but-not-atomic run: two readers observe
        an incomplete write in opposite orders."""
        cluster = SPEC.build(CONFIG)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "new")
        execution.deliver_requests(write_op, to=[server(1)])  # incomplete
        # r1 reads via s1: sees "new"
        read1 = execution.invoke(reader(1), "read")
        via1 = [server(1), server(2), server(3)]
        execution.deliver_requests(read1, to=via1)
        execution.deliver_replies(read1, from_=via1)
        assert read1.result == "new"
        # r2 reads via s3,s4,s5: misses the write, returns ⊥ — inversion!
        read2 = execution.invoke(reader(2), "read")
        via2 = [server(3), server(4), server(5)]
        execution.deliver_requests(read2, to=via2)
        execution.deliver_replies(read2, from_=via2)
        assert read2.result == BOTTOM
        # regular: fine; atomic: violated
        assert check_swmr_regularity(execution.history).ok
        atomic = check_swmr_atomicity(execution.history)
        assert not atomic.ok

    @pytest.mark.parametrize("seed", range(6))
    def test_fuzz_always_regular(self, seed):
        result = run_workload(
            "regular-fast",
            CONFIG,
            workload=ClosedLoopWorkload.contention(ops=8),
            seed=seed,
        )
        assert result.check_regular().ok, result.history.describe()
        assert result.check_fast().ok

    def test_fuzz_with_writer_crashes_still_regular(self):
        from repro.registers.registry import get_protocol
        from repro.sim.latency import UniformLatency
        from repro.sim.runtime import Simulation

        cluster = get_protocol("regular-fast").build(CONFIG)
        sim = Simulation(seed=3, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        sim.invoke_at(0.0, writer(1), "write", 1)
        sim.at(4.0, lambda: sim.crash_after_sends(writer(1), 2))
        sim.invoke_at(4.0, writer(1), "write", 2)
        for index in range(6):
            sim.invoke_at(5.0 + index, reader(1 + index % 4), "read", None)
        sim.run()
        assert check_swmr_regularity(sim.history).ok
