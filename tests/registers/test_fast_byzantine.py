"""Tests for the Figure 5 fast Byzantine register."""

import pytest

from repro.errors import ConfigurationError
from functools import partial

from repro.faults.byzantine import TwoFacedServer, corrupt
from repro.registers.base import ClusterConfig
from repro.registers.fast_byzantine import SPEC, requirement
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, server, servers, writer
from repro.sim.latency import ConstantLatency, UniformLatency
from repro.spec.atomicity import check_swmr_atomicity
from repro.workloads import ClosedLoopWorkload, run_workload

# S > (R+2)t + (R+1)b = 4*1 + 3*1 = 7
FEASIBLE = ClusterConfig(S=8, t=1, b=1, R=2)


def byz_run(config, byz_indexes, install, seed=0, ops=6):
    """Run a contention workload with chosen servers replaced:
    ``install(cluster, index)`` puts the liar in."""

    def hook(cluster):
        for index in byz_indexes:
            install(cluster, index)

    return run_workload(
        "fast-byzantine",
        config,
        workload=ClosedLoopWorkload.contention(ops=ops),
        seed=seed,
        latency=UniformLatency(0.5, 1.5),
        cluster_hook=hook,
    )


class TestRequirement:
    def test_threshold(self):
        assert requirement(ClusterConfig(S=8, t=1, b=1, R=2)) is None
        assert requirement(ClusterConfig(S=7, t=1, b=1, R=2)) is not None

    def test_b_zero_matches_crash_bound(self):
        assert requirement(ClusterConfig(S=7, t=2, b=0, R=1)) is None
        assert requirement(ClusterConfig(S=6, t=2, b=0, R=1)) is not None

    def test_build_enforces(self):
        with pytest.raises(ConfigurationError):
            SPEC.build(ClusterConfig(S=7, t=1, b=1, R=2))


class TestHonestRuns:
    def test_sequential_ops_atomic_and_fast(self):
        result = run_workload(
            "fast-byzantine",
            FEASIBLE,
            workload=ClosedLoopWorkload(reads_per_reader=5, writes_per_writer=5),
            seed=1,
            latency=UniformLatency(0.5, 1.5),
        )
        assert result.check_atomic().ok
        assert result.check_fast().ok

    def test_signed_tags_round_trip(self):
        cluster = SPEC.build(FEASIBLE)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "secret")
        execution.run_to_quiescence()
        assert write_op.complete
        read_op = execution.invoke(reader(1), "read")
        execution.run_to_quiescence()
        assert read_op.result == "secret"


class TestAttacks:
    def test_silent_servers_tolerated(self):
        result = byz_run(FEASIBLE, [1], partial(corrupt, strategy="silent"), seed=2)
        assert not result.history.incomplete_operations
        assert result.check_atomic().ok

    def test_stale_replay_tolerated(self):
        result = byz_run(FEASIBLE, [1], partial(corrupt, strategy="stale"), seed=3)
        assert result.check_atomic().ok

    def test_seen_inflation_tolerated(self):
        result = byz_run(
            FEASIBLE, [1], partial(corrupt, strategy="inflate-seen"), seed=4
        )
        assert result.check_atomic().ok

    def test_forged_timestamps_discarded(self):
        result = byz_run(FEASIBLE, [1], partial(corrupt, strategy="forge"), seed=5)
        assert result.check_atomic().ok
        # nobody ever returned the forged value
        for op in result.history.reads:
            assert op.result != "forged-value"

    def test_two_faced_tolerated_within_threshold(self):
        def two_faced(cluster, index):
            impostor = TwoFacedServer(
                pid=server(index),
                make_inner=partial(cluster.honest_server, index),
                victims={reader(1)},
            )
            cluster.replace_server(index, impostor)

        result = byz_run(FEASIBLE, [1], two_faced, seed=6)
        assert result.check_atomic().ok

    @pytest.mark.parametrize(
        "behaviour", ["stale", "inflate-seen", "forge", "silent", "two-faced"]
    )
    def test_every_attack_at_one_hop(self, behaviour):
        """The same menu at constant latency, one liar, seed 3."""

        def hook(cluster):
            if behaviour != "two-faced":
                corrupt(cluster, 1, behaviour)
                return
            impostor = TwoFacedServer(
                pid=server(1),
                make_inner=partial(cluster.honest_server, 1),
                victims={reader(1)},
            )
            cluster.replace_server(1, impostor)

        result = run_workload(
            "fast-byzantine",
            FEASIBLE,
            workload=ClosedLoopWorkload.contention(ops=6),
            seed=3,
            latency=ConstantLatency(1.0),
            cluster_hook=hook,
        )
        verdict = result.check_atomic()
        assert verdict.ok, f"{behaviour}: {verdict.describe()}"

    @pytest.mark.parametrize("seed", range(5))
    def test_mixed_attack_fuzz(self, seed):
        """b=2 attackers with different behaviours; atomicity must hold
        when S > (R+2)t + (R+1)b."""
        config = ClusterConfig(S=13, t=2, b=2, R=2)  # needs S > 8+6=14? no: 4*2+3*2=14
        # adjust: need S > 14
        config = ClusterConfig(S=15, t=2, b=2, R=2)

        def hook(cluster):
            corrupt(cluster, 1, "stale")
            corrupt(cluster, 2, "inflate-seen")

        result = run_workload(
            "fast-byzantine",
            config,
            workload=ClosedLoopWorkload.contention(ops=5),
            seed=seed,
            latency=UniformLatency(0.5, 1.5),
            cluster_hook=hook,
        )
        assert result.check_atomic().ok, result.history.describe()

    def test_two_liars_at_one_hop_stay_atomic_and_fast(self):
        """The full b=2 budget spent, at constant latency: every
        operation still takes one round trip."""

        def hook(cluster):
            corrupt(cluster, 1, "stale")
            corrupt(cluster, 2, "inflate-seen")

        result = run_workload(
            "fast-byzantine",
            ClusterConfig(S=15, t=2, b=2, R=2),
            workload=ClosedLoopWorkload.contention(ops=5),
            seed=5,
            latency=ConstantLatency(1.0),
            cluster_hook=hook,
        )
        assert result.check_atomic().ok
        assert result.check_fast().ok


class TestValidityFiltering:
    def test_reader_ignores_acks_below_written_back_ts(self):
        """After reading ts=1, a reader's next read writes ts=1 back and
        discards any (malicious) ack claiming ts=0."""
        cluster = SPEC.build(FEASIBLE)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "v")
        execution.run_to_quiescence()
        read1 = execution.invoke(reader(1), "read")
        execution.run_to_quiescence()
        assert read1.result == "v"
        # Second read: all servers now have ts >= 1; responses valid.
        read2 = execution.invoke(reader(1), "read")
        execution.run_to_quiescence()
        assert read2.result == "v"
        assert check_swmr_atomicity(execution.history).ok
