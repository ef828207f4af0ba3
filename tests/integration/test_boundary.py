"""The headline boundary test: the main theorem, executed.

For sampled parameter sets on the feasibility frontier:

* at ``R = maxR`` the fast protocol passes contention runs under random
  and constant latencies
  (atomic + fast, certified by the independent checkers);
* at ``R = maxR + 1`` the matching lower-bound construction produces a
  concrete, checker-certified atomicity violation.

This pair is the executable form of "if and only if".
"""

import pytest

from repro.analysis.sweep import boundary_cases
from repro.bounds import run_byzantine_lower_bound
from repro.bounds import run_crash_lower_bound
from repro.registers.base import ClusterConfig
from repro.sim.latency import ConstantLatency, ExponentialLatency
from repro.workloads import ClosedLoopWorkload, run_workload

CRASH_CASES = [
    case
    for case in boundary_cases(range(4, 14), range(1, 4))
    if case.R_bad >= 2
][:8]

BYZ_CASES = [
    case
    for case in boundary_cases(range(6, 18), range(1, 3), b_values=(1, 2))
    if case.R_bad >= 2
][:6]


class TestCrashFrontier:
    @pytest.mark.parametrize(
        "case", CRASH_CASES, ids=lambda c: f"S{c.S}-t{c.t}-R{c.R_ok}"
    )
    def test_feasible_side_passes(self, case):
        config = ClusterConfig(S=case.S, t=case.t, R=case.R_ok)
        runs = [(seed, ExponentialLatency(mean=1.0)) for seed in range(3)]
        for seed, latency in runs + [(1, ConstantLatency(1.0))]:
            result = run_workload(
                "fast-crash",
                config,
                workload=ClosedLoopWorkload.contention(ops=5),
                seed=seed,
                latency=latency,
            )
            assert result.check_atomic().ok, result.history.describe()
            assert result.check_fast().ok

    @pytest.mark.parametrize(
        "case", CRASH_CASES, ids=lambda c: f"S{c.S}-t{c.t}-R{c.R_bad}"
    )
    def test_infeasible_side_violates(self, case):
        result = run_crash_lower_bound(S=case.S, t=case.t, R=case.R_bad)
        assert result.violated, result.describe()


class TestByzantineFrontier:
    @pytest.mark.parametrize(
        "case", BYZ_CASES, ids=lambda c: f"S{c.S}-t{c.t}-b{c.b}-R{c.R_ok}"
    )
    def test_feasible_side_passes(self, case):
        config = ClusterConfig(S=case.S, t=case.t, b=case.b, R=case.R_ok)
        for latency in (ExponentialLatency(mean=1.0), ConstantLatency(1.0)):
            result = run_workload(
                "fast-byzantine",
                config,
                workload=ClosedLoopWorkload.contention(ops=4),
                seed=1,
                latency=latency,
            )
            assert result.check_atomic().ok
            assert result.check_fast().ok

    @pytest.mark.parametrize(
        "case", BYZ_CASES, ids=lambda c: f"S{c.S}-t{c.t}-b{c.b}-R{c.R_bad}"
    )
    def test_infeasible_side_violates(self, case):
        result = run_byzantine_lower_bound(
            S=case.S, t=case.t, b=case.b, R=case.R_bad
        )
        assert result.violated, result.describe()
