"""E2 — Figure 5: the fast Byzantine register.

Paper claim: with digital signatures and ``S > (R+2)t + (R+1)b``, reads
and writes stay one round-trip and atomic even when ``b`` of the faulty
servers are actively malicious.

Measured shape: under a mix of attacks (stale replay, seen-set
inflation, signature forgery, silence, two-faced memory loss) the
history remains atomic and every operation fast; read latency equals
the crash protocol's 2 hops — signatures buy tolerance, not rounds.
"""

import pytest

from functools import partial

from repro.faults.byzantine import TwoFacedServer, corrupt
from repro.registers.base import ClusterConfig
from repro.sim.ids import reader, server
from repro.workloads import ClosedLoopWorkload

from benchmarks.conftest import HOP, measured_run, read_write_means

# S > (R+2)t + (R+1)b = 4*1 + 3*1 = 7
CONFIG = ClusterConfig(S=8, t=1, b=1, R=2)
# room for two liars: S > 4*2 + 3*2 = 14
CONFIG_B2 = ClusterConfig(S=15, t=2, b=2, R=2)


def _attack_hook(strategy):
    def hook(cluster):
        if strategy != "two-faced":
            corrupt(cluster, 1, strategy)
            return
        impostor = TwoFacedServer(
            pid=server(1),
            make_inner=partial(cluster.honest_server, 1),
            victims={reader(1)},
        )
        cluster.replace_server(1, impostor)

    return hook


def test_byzantine_honest_baseline(benchmark):
    result = benchmark(lambda: measured_run("fast-byzantine", CONFIG, seed=1))
    assert result.check_atomic().ok
    assert result.check_fast().ok
    means = read_write_means(result)
    assert means["read_mean"] == pytest.approx(2.0)
    benchmark.extra_info.update(means)


@pytest.mark.parametrize(
    "behaviour", ["stale", "inflate-seen", "forge", "silent", "two-faced"]
)
def test_byzantine_under_attack(benchmark, behaviour):
    from repro.workloads import run_workload

    def run():
        return run_workload(
            "fast-byzantine",
            CONFIG,
            workload=ClosedLoopWorkload.contention(ops=6),
            seed=3,
            latency=HOP,
            cluster_hook=_attack_hook(behaviour),
        )

    result = benchmark(run)
    verdict = result.check_atomic()
    assert verdict.ok, f"{behaviour}: {verdict.describe()}"
    benchmark.extra_info["attack"] = behaviour
    benchmark.extra_info["reads"] = len(result.history.reads)


def test_two_liars_full_budget(benchmark):
    from repro.workloads import run_workload

    def hook(cluster):
        corrupt(cluster, 1, "stale")
        corrupt(cluster, 2, "inflate-seen")

    def run():
        return run_workload(
            "fast-byzantine",
            CONFIG_B2,
            workload=ClosedLoopWorkload.contention(ops=5),
            seed=5,
            latency=HOP,
            cluster_hook=hook,
        )

    result = benchmark(run)
    assert result.check_atomic().ok
    assert result.check_fast().ok
    benchmark.extra_info["S"] = CONFIG_B2.S
    benchmark.extra_info["liars"] = 2


def test_signature_cost_is_zero_rounds(benchmark):
    """Crash vs Byzantine protocol on equal terms: identical hop counts
    (the signature machinery adds no communication)."""

    def run_pair():
        crash = measured_run("fast-crash", ClusterConfig(S=8, t=1, R=2), seed=2)
        byz = measured_run("fast-byzantine", CONFIG, seed=2)
        return crash, byz

    crash, byz = benchmark(run_pair)
    assert read_write_means(crash)["read_mean"] == pytest.approx(
        read_write_means(byz)["read_mean"]
    )
    benchmark.extra_info["crash_read_mean"] = read_write_means(crash)["read_mean"]
    benchmark.extra_info["byz_read_mean"] = read_write_means(byz)["read_mean"]
