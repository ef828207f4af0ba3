"""Tests for the experiment runner."""

import pytest

from repro.analysis.metrics import latency_by_kind, throughput
from repro.errors import ConfigurationError
from repro.faults.crash import CrashPlan
from repro.registers.base import ClusterConfig
from repro.registers.registry import PROTOCOLS
from repro.sim.ids import server
from repro.sim.latency import ConstantLatency, ExponentialLatency
from repro.workloads.generators import ClosedLoopWorkload
from repro.workloads.runner import run_workload

CONFIG = ClusterConfig(S=8, t=1, R=2)
LIGHT = ClosedLoopWorkload(reads_per_reader=3, writes_per_writer=3)

#: One simulated time unit per message hop: a read's mean latency is its
#: round structure, 2.0 (one round trip), 3.0 (max-min) or 4.0 (ABD).
HOP = ConstantLatency(1.0)
MEDIUM = ClosedLoopWorkload(reads_per_reader=10, writes_per_writer=5)

#: ``(protocol, config, seed, workload, read mean, write mean or None)``.
HOP_LATENCIES = list(
    dict.fromkeys(
        [
            # Figure 2 against the two baselines (E1)
            ("fast-crash", ClusterConfig(S=8, t=1, R=3), 1, MEDIUM, 2.0, 2.0),
            ("abd", ClusterConfig(S=8, t=1, R=3), 1, MEDIUM, 4.0, 2.0),
            ("maxmin", ClusterConfig(S=8, t=1, R=3), 1, MEDIUM, 3.0, None),
            # Figure 5 with every server honest (E2)
            ("fast-byzantine", ClusterConfig(S=8, t=1, b=1, R=2), 1, MEDIUM, 2.0, None),
            # Section 8: regular is fast where Figure 2 serves no reader (E6)
            ("regular-fast", ClusterConfig(S=5, t=2, R=6), 3, MEDIUM, 2.0, None),
        ]
        # fast reads are flat in S (E1, E9) ...
        + [
            ("fast-crash", ClusterConfig(S=S, t=1, R=3), 2, MEDIUM, 2.0, None)
            for S in (6, 12, 18, 24)
        ]
        + [
            (protocol, ClusterConfig(S=S, t=1, R=3), 2, MEDIUM, mean, None)
            for S in (6, 10, 14, 18, 22)
            for protocol, mean in (("fast-crash", 2.0), ("abd", 4.0))
        ]
        # ... and in R while R < S/t - 2 holds (E9)
        + [
            (
                "fast-crash",
                ClusterConfig(S=20, t=1, R=R),
                3,
                ClosedLoopWorkload(reads_per_reader=5, writes_per_writer=5),
                2.0,
                None,
            )
            for R in (1, 4, 8, 16)
        ]
    )
)


class TestRunWorkload:
    def test_returns_complete_result(self):
        result = run_workload("fast-crash", CONFIG, workload=LIGHT, seed=1)
        assert result.protocol == "fast-crash"
        assert len(result.history) == 3 * 2 + 3
        assert result.events_executed > 0
        assert result.messages_sent() > 0

    def test_checks_available(self):
        result = run_workload("fast-crash", CONFIG, workload=LIGHT, seed=1)
        assert result.check_atomic().ok
        assert result.check_fast().ok
        assert result.check_regular().ok

    def test_latency_lists(self):
        result = run_workload(
            "fast-crash",
            CONFIG,
            workload=LIGHT,
            seed=1,
            latency=ConstantLatency(1.0),
        )
        reads = result.read_latencies()
        writes = result.write_latencies()
        assert len(reads) == 6 and len(writes) == 3
        # one round trip at constant latency 1.0 = exactly 2.0
        assert all(abs(lat - 2.0) < 1e-6 for lat in reads + writes)

    def test_abd_read_latency_doubles(self):
        result = run_workload(
            "abd",
            ClusterConfig(S=5, t=2, R=2),
            workload=LIGHT,
            seed=1,
            latency=ConstantLatency(1.0),
        )
        assert all(abs(lat - 4.0) < 1e-6 for lat in result.read_latencies())
        assert all(abs(lat - 2.0) < 1e-6 for lat in result.write_latencies())

    def test_enforce_rejects_infeasible(self):
        with pytest.raises(ConfigurationError):
            run_workload("fast-crash", ClusterConfig(S=4, t=1, R=2))

    def test_enforce_false_allows_infeasible(self):
        result = run_workload(
            "fast-crash",
            ClusterConfig(S=4, t=1, R=2),
            workload=LIGHT,
            seed=1,
            enforce=False,
        )
        # it runs; correctness beyond the threshold is not guaranteed,
        # but this smooth random schedule happens to stay atomic
        assert len(result.history.complete_operations) > 0

    def test_crash_plan_validated(self):
        plan = CrashPlan().add(server(1), 1.0).add(server(2), 2.0)
        with pytest.raises(ConfigurationError):
            run_workload("fast-crash", CONFIG, workload=LIGHT, crash_plan=plan)

    def test_crash_plan_applied(self):
        plan = CrashPlan().add(server(1), 0.5)
        result = run_workload(
            "fast-crash", CONFIG, workload=LIGHT, seed=2, crash_plan=plan
        )
        assert result.sim.process(server(1)).crashed
        assert result.check_atomic().ok

    def test_cluster_hook_runs(self):
        seen = []
        run_workload(
            "fast-crash",
            CONFIG,
            workload=LIGHT,
            cluster_hook=lambda cluster: seen.append(cluster.protocol),
        )
        assert seen == ["fast-crash"]

    def test_trace_can_be_disabled(self):
        result = run_workload(
            "fast-crash", CONFIG, workload=LIGHT, record_trace=False
        )
        assert len(result.trace) == 0
        assert result.check_atomic().ok  # history still recorded

    def test_rounds_summary(self):
        result = run_workload("fast-crash", CONFIG, workload=LIGHT, seed=1)
        assert result.rounds() == {"read": {1: 6}, "write": {1: 3}}


class TestReadLatencyInHops:
    @pytest.mark.parametrize(
        "protocol,config,seed,workload,read_mean,write_mean",
        HOP_LATENCIES,
        ids=[
            f"{protocol}-S{c.S}-t{c.t}-b{c.b}-R{c.R}-seed{seed}"
            for protocol, c, seed, *_ in HOP_LATENCIES
        ],
    )
    def test_mean_latency_is_the_round_structure(
        self, protocol, config, seed, workload, read_mean, write_mean
    ):
        spec = PROTOCOLS[protocol]
        result = run_workload(
            protocol, config, workload=workload, seed=seed, latency=HOP
        )
        if spec.contract == "regular":
            assert result.check_regular().ok
        else:
            assert result.check_atomic().ok
        assert result.check_fast().ok == (spec.fast_reads and spec.fast_writes)
        means = latency_by_kind(result.history)
        assert means["read"].mean == pytest.approx(read_mean)
        if write_mean is not None:
            assert means["write"].mean == pytest.approx(write_mean)

    def test_signatures_cost_no_hops(self):
        """Figure 5's signatures add no communication: equal read means."""
        crash = run_workload(
            "fast-crash", ClusterConfig(S=8, t=1, R=2), workload=MEDIUM, seed=2,
            latency=HOP,
        )
        byz = run_workload(
            "fast-byzantine", ClusterConfig(S=8, t=1, b=1, R=2), workload=MEDIUM,
            seed=2, latency=HOP,
        )
        assert latency_by_kind(crash.history)["read"].mean == pytest.approx(
            latency_by_kind(byz.history)["read"].mean
        )

    def test_fast_reads_win_under_exponential_latency(self):
        """fast < max-min < ABD survives concurrency and random delays."""
        means = {}
        for protocol in ("fast-crash", "maxmin", "abd"):
            result = run_workload(
                protocol,
                ClusterConfig(S=8, t=1, R=3),
                workload=ClosedLoopWorkload.contention(ops=8),
                seed=7,
                latency=ExponentialLatency(mean=1.0),
            )
            assert result.check_atomic().ok
            means[protocol] = latency_by_kind(result.history)["read"].mean
        assert means["fast-crash"] < means["maxmin"] < means["abd"]

    def test_fast_read_tail_beats_abd(self):
        """Under heavy-tailed delays ABD's two rounds pay the tail twice."""
        p99 = {}
        for protocol in ("fast-crash", "abd"):
            result = run_workload(
                protocol,
                ClusterConfig(S=9, t=1, R=2),
                workload=ClosedLoopWorkload(reads_per_reader=30, writes_per_writer=5),
                seed=11,
                latency=ExponentialLatency(mean=1.0),
            )
            latencies = sorted(result.read_latencies())
            p99[protocol] = latencies[int(0.99 * len(latencies)) - 1]
        assert p99["fast-crash"] < p99["abd"]

    def test_read_throughput_grows_with_readers(self):
        """Readers work independently: completed reads per simulated
        second grow with R."""
        rates = {}
        for R in (2, 6, 12):
            result = run_workload(
                "fast-crash",
                ClusterConfig(S=16, t=1, R=R),
                workload=ClosedLoopWorkload(
                    reads_per_reader=8, writes_per_writer=4, think_time_mean=1.0
                ),
                seed=4,
                latency=HOP,
            )
            rates[R] = throughput(result.history)
        assert rates[12] > rates[2]
