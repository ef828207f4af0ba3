"""Tests for the Figure 2 ablation study."""

import pytest

from repro.registers.ablations import (
    ABLATIONS,
    EagerReader,
    NoCounterServer,
    TimidReader,
    demonstrate_eager_reader,
    demonstrate_hasty_writer,
    demonstrate_no_seen_reset,
    demonstrate_timid_reader,
)
from repro.registers.base import ClusterConfig
from repro.registers.fast_crash import SPEC
from repro.sim.latency import UniformLatency
from repro.sim.runtime import Simulation
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.histories import BOTTOM


class TestEachAblationBreaks:
    @pytest.mark.parametrize("name", sorted(ABLATIONS))
    def test_witness_demonstrates_necessity(self, name):
        witness = ABLATIONS[name]()
        assert not witness.ablated_verdict.ok, witness.describe()
        assert witness.control_verdict.ok, witness.describe()
        assert witness.demonstrates_necessity

    def test_eager_reader_returns_then_loses_value(self):
        witness = demonstrate_eager_reader()
        reads = [op for op in witness.ablated_history.reads if op.complete]
        assert reads[0].result == 1
        assert reads[1].result == BOTTOM

    def test_timid_reader_ignores_completed_write(self):
        witness = demonstrate_timid_reader()
        read = next(op for op in witness.ablated_history.reads if op.complete)
        assert read.result == BOTTOM
        # control returns the written value
        control_read = next(
            op for op in witness.control_history.reads if op.complete
        )
        assert control_read.result == 1

    def test_no_seen_reset_fires_predicate_spuriously(self):
        witness = demonstrate_no_seen_reset()
        second_round_reads = [
            op for op in witness.ablated_history.reads if op.complete
        ][-2:]
        assert second_round_reads[0].result == 1  # polluted predicate fired
        assert second_round_reads[1].result == BOTTOM

    def test_hasty_writer_completes_then_vanishes(self):
        witness = demonstrate_hasty_writer()
        write_op = witness.ablated_history.writes[0]
        assert write_op.complete  # hasty: done after one ack
        control_write = witness.control_history.writes[0]
        assert not control_write.complete  # faithful: still pending

    def test_describe_includes_both_verdicts(self):
        text = demonstrate_eager_reader().describe()
        assert "ablated" in text and "control" in text


class TestAblatedComponentsInFreeRuns:
    """Ablated variants also fail under randomized load, not only under
    the hand-crafted schedule (where breakage needs partial writes)."""

    def test_timid_reader_fails_fuzz(self):
        config = ClusterConfig(S=8, t=1, R=2)
        cluster = SPEC.swap(TimidReader).build(config, enforce=False)
        sim = Simulation(seed=1, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        from repro.sim.ids import reader, writer

        sim.invoke_at(0.0, writer(1), "write", 1)
        sim.invoke_at(5.0, reader(1), "read", None)
        sim.run()
        assert not check_swmr_atomicity(sim.history).ok

    def test_eager_reader_with_mid_write_crash_fails(self):
        """Sequential (non-overlapping) reads after a one-server write:
        whenever an early read's quorum samples the lone written server
        and a later read's quorum misses it, atomicity breaks."""
        config = ClusterConfig(S=8, t=1, R=2)
        found_violation = False
        for seed in range(25):
            cluster = SPEC.swap(EagerReader).build(config, enforce=False)
            sim = Simulation(seed=seed, latency=UniformLatency(0.5, 1.5))
            cluster.install(sim)
            from repro.sim.ids import reader, writer

            sim.at(0.0, lambda: sim.crash_after_sends(writer(1), 1))
            sim.invoke_at(0.0, writer(1), "write", 1)
            # spacing 4.0 > 2 * max latency keeps the reads sequential,
            # so condition 4 applies between consecutive reads
            for index in range(8):
                sim.invoke_at(
                    3.0 + 4.0 * index, reader(1 + index % 2), "read", None
                )
            sim.run()
            if not check_swmr_atomicity(sim.history).ok:
                found_violation = True
                break
        assert found_violation


class TestNoCounterServer:
    """The counters' necessity is established only by the Lemma 4 case
    analysis; these tests document that the ablated server still works
    on well-ordered runs and record the reordering fuzz outcome."""

    def test_behaves_normally_without_stale_messages(self):
        config = ClusterConfig(S=8, t=1, R=3)
        cluster = SPEC.swap(NoCounterServer).build(config, enforce=False)
        sim = Simulation(seed=0, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        from repro.sim.ids import reader, writer

        sim.invoke_at(0.0, writer(1), "write", 1)
        sim.invoke_at(5.0, reader(1), "read", None)
        sim.run()
        assert check_swmr_atomicity(sim.history).ok

    def test_accepts_stale_counter_messages(self):
        """The ablated server answers a read message older than one it
        already answered — exactly what line 26 forbids."""
        from repro.faults.byzantine import run_captured
        from repro.registers import messages as msg
        from repro.registers.timestamps import INITIAL_TAG
        from repro.sim.ids import reader, server

        config = ClusterConfig(S=8, t=1, R=3)
        honest = SPEC.build(config).honest_server(1)
        ablated = NoCounterServer(server(1), config)
        new_msg = msg.FastRead(op_id=2, tag=INITIAL_TAG, r_counter=2)
        stale_msg = msg.FastRead(op_id=1, tag=INITIAL_TAG, r_counter=1)
        assert run_captured(honest, new_msg, reader(1), 0.0)
        assert not run_captured(honest, stale_msg, reader(1), 0.0)
        assert run_captured(ablated, new_msg, reader(1), 0.0)
        assert run_captured(ablated, stale_msg, reader(1), 0.0)  # the bug
