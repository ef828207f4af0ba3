"""Tests for the fast single-reader register."""

import pytest

from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.registers.swsr import SPEC, requirement
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, writer
from repro.spec.atomicity import check_swmr_atomicity
from repro.workloads import ClosedLoopWorkload, run_workload

from tests.registers.helpers import (
    assert_atomic_and_complete,
    assert_fast,
    run_sequence,
    spaced_ops,
)

CONFIG = ClusterConfig(S=5, t=2, R=1)


class TestRequirement:
    def test_single_reader_majority(self):
        assert requirement(CONFIG) is None
        assert requirement(ClusterConfig(S=5, t=2, R=2)) is not None
        assert requirement(ClusterConfig(S=4, t=2, R=1)) is not None

    def test_better_than_figure2_for_one_reader(self):
        """t=2, S=5: Figure 2 would need S > 3t = 6; SWSR works at 5."""
        from repro.registers.fast_crash import requirement as fc_requirement

        config = ClusterConfig(S=5, t=2, R=1)
        assert requirement(config) is None
        assert fc_requirement(config) is not None

    def test_build_enforces(self):
        with pytest.raises(ConfigurationError):
            SPEC.build(ClusterConfig(S=5, t=2, R=2))


class TestBehaviour:
    def test_sequence_atomic_and_fast(self):
        sim = run_sequence("swsr-fast", CONFIG, spaced_ops(writes=4, readers=1))
        assert_atomic_and_complete(sim)
        assert_fast(sim)

    def test_monotonic_reads_with_incomplete_write(self):
        """The reader returns an incomplete write once, then never goes
        back — the local-tag trick that makes one reader easy."""
        cluster = SPEC.build(CONFIG)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "v")
        execution.deliver_requests(write_op, to=[server(1)])  # incomplete
        # read 1 sees s1 (and s2, s3): returns "v"
        read1 = execution.invoke(reader(1), "read")
        via1 = [server(1), server(2), server(3)]
        execution.deliver_requests(read1, to=via1)
        execution.deliver_replies(read1, from_=via1)
        assert read1.result == "v"
        # read 2 misses s1 entirely but must not regress
        read2 = execution.invoke(reader(1), "read")
        via2 = [server(3), server(4), server(5)]
        execution.deliver_requests(read2, to=via2)
        execution.deliver_replies(read2, from_=via2)
        assert read2.result == "v"
        assert check_swmr_atomicity(execution.history).ok

    @pytest.mark.parametrize("seed", range(5))
    def test_contention_fuzz(self, seed):
        result = run_workload(
            "swsr-fast",
            CONFIG,
            workload=ClosedLoopWorkload.contention(ops=8),
            seed=seed,
        )
        assert result.check_atomic().ok
        assert result.check_fast().ok
