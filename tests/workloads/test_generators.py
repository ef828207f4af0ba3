"""Tests for closed-loop workload generation."""

import pytest

from repro.registers.base import ClusterConfig
from repro.registers.registry import get_protocol
from repro.sim.ids import reader, writer
from repro.sim.latency import UniformLatency
from repro.sim.runtime import Simulation
from repro.workloads.generators import ClosedLoopWorkload, WorkloadDriver

CONFIG = ClusterConfig(S=8, t=1, R=3)


def drive(workload, seed=0, config=CONFIG, protocol="fast-crash"):
    cluster = get_protocol(protocol).build(config)
    sim = Simulation(seed=seed, latency=UniformLatency(0.5, 1.5))
    cluster.install(sim)
    driver = WorkloadDriver(sim, config, workload, seed=seed)
    driver.arm()
    sim.run()
    return sim, driver


class TestClosedLoop:
    def test_all_planned_ops_complete(self):
        workload = ClosedLoopWorkload(reads_per_reader=4, writes_per_writer=3)
        sim, driver = drive(workload)
        assert len(sim.history) == driver.total_planned
        assert not sim.history.incomplete_operations

    def test_never_overlapping_per_client(self):
        workload = ClosedLoopWorkload.contention(ops=10)
        sim, _ = drive(workload)
        # the History class would have raised on overlap; double-check order
        for pid in [writer(1), reader(1), reader(2), reader(3)]:
            ops = [op for op in sim.history.operations if op.proc == pid]
            for earlier, later in zip(ops, ops[1:]):
                assert earlier.responded_at <= later.invoked_at

    def test_writer_values_monotonic(self):
        workload = ClosedLoopWorkload(reads_per_reader=0, writes_per_writer=5)
        sim, _ = drive(workload)
        values = [op.value for op in sim.history.writes]
        assert values == [1, 2, 3, 4, 5]

    def test_zero_ops_client_not_registered(self):
        workload = ClosedLoopWorkload(reads_per_reader=0, writes_per_writer=2)
        sim, _ = drive(workload)
        assert all(op.is_write for op in sim.history.operations)

    def test_deterministic_per_seed(self):
        workload = ClosedLoopWorkload(reads_per_reader=3, writes_per_writer=3)
        sim1, _ = drive(workload, seed=5)
        sim2, _ = drive(workload, seed=5)
        times1 = [(op.invoked_at, op.responded_at) for op in sim1.history]
        times2 = [(op.invoked_at, op.responded_at) for op in sim2.history]
        assert times1 == times2

    def test_different_seeds_differ(self):
        workload = ClosedLoopWorkload(reads_per_reader=3, writes_per_writer=3)
        sim1, _ = drive(workload, seed=1)
        sim2, _ = drive(workload, seed=2)
        times1 = [op.invoked_at for op in sim1.history]
        times2 = [op.invoked_at for op in sim2.history]
        assert times1 != times2

    def test_contention_starts_at_zero(self):
        workload = ClosedLoopWorkload.contention(ops=2)
        sim, _ = drive(workload)
        first_invocations = sorted(op.invoked_at for op in sim.history)[:4]
        assert all(t == 0.0 for t in first_invocations)

    def test_crashed_client_stops_cleanly(self):
        cluster = get_protocol("fast-crash").build(CONFIG)
        sim = Simulation(seed=0, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        workload = ClosedLoopWorkload(reads_per_reader=50, writes_per_writer=0,
                                      think_time_mean=0.5)
        driver = WorkloadDriver(sim, CONFIG, workload, seed=0)
        driver.arm()
        sim.crash_at(10.0, reader(1))
        sim.run()
        r1_ops = [op for op in sim.history.operations if op.proc == reader(1)]
        assert len(r1_ops) < 50  # stopped early, no error


class TestMultiWriter:
    def test_mw_values_tagged_by_writer(self):
        config = ClusterConfig(S=5, t=2, R=1, W=2)
        workload = ClosedLoopWorkload(reads_per_reader=1, writes_per_writer=2)
        cluster = get_protocol("mwmr").build(config)
        sim = Simulation(seed=0, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        driver = WorkloadDriver(sim, config, workload, seed=0)
        driver.arm()
        sim.run()
        values = {op.value for op in sim.history.writes}
        assert values == {(1, 1), (1, 2), (2, 1), (2, 2)}


class TestBurstWorkload:
    def test_burst_size_one_is_default_behaviour(self):
        plain = ClosedLoopWorkload(reads_per_reader=4, writes_per_writer=3)
        explicit = ClosedLoopWorkload(
            reads_per_reader=4, writes_per_writer=3, burst_size=1
        )
        sim_a, _ = drive(plain, seed=5)
        sim_b, _ = drive(explicit, seed=5)
        ops_a = [(op.proc, op.kind, op.invoked_at) for op in sim_a.history.operations]
        ops_b = [(op.proc, op.kind, op.invoked_at) for op in sim_b.history.operations]
        assert ops_a == ops_b

    def test_bursty_completes_all_ops(self):
        workload = ClosedLoopWorkload(
            reads_per_reader=12, writes_per_writer=12, think_time_mean=3.0, burst_size=4
        )
        sim, driver = drive(workload)
        assert len(sim.history) == driver.total_planned
        assert not sim.history.incomplete_operations

    def test_bursts_are_back_to_back(self):
        """Within a burst the next invocation fires at the previous
        response instant; pauses only appear between bursts."""
        workload = ClosedLoopWorkload(
            reads_per_reader=0, writes_per_writer=6,
            think_time_mean=5.0, start_spread=0.0, burst_size=3,
        )
        sim, _ = drive(workload)
        ops = [op for op in sim.history.operations if op.proc == writer(1)]
        assert len(ops) == 6
        gaps = [
            later.invoked_at - earlier.responded_at
            for earlier, later in zip(ops, ops[1:])
        ]
        # gaps inside a burst (positions 0, 1, 3, 4) are zero; the gap
        # between bursts (position 2) is an exponential pause
        assert gaps[0] == gaps[1] == gaps[3] == gaps[4] == 0.0
        assert gaps[2] > 0.0

    def test_invalid_burst_size_rejected(self):
        with pytest.raises(ValueError):
            ClosedLoopWorkload(burst_size=0)

    def test_burst_runs_deterministic(self):
        workload = ClosedLoopWorkload(
            reads_per_reader=8, writes_per_writer=8, think_time_mean=4.0, burst_size=3
        )
        sim_a, _ = drive(workload, seed=11)
        sim_b, _ = drive(workload, seed=11)
        a = [(op.proc, op.invoked_at, op.responded_at) for op in sim_a.history.operations]
        b = [(op.proc, op.invoked_at, op.responded_at) for op in sim_b.history.operations]
        assert a == b
