"""E7 — the main theorem as a table: ``maxR(S, t, b)``.

Paper claim (Section 9 summary): a fast SWMR atomic register exists iff
``R < S/t - 2`` (crash) and iff ``R < (S+b)/(t+b) - 2`` (arbitrary
failures with signatures).

Measured shape: the analytic table is regenerated and, at sampled
boundary points, validated empirically from both sides — the protocol
passes contention fuzzing at ``maxR`` and the matching construction
violates atomicity at ``maxR + 1``.
"""


import pytest

from repro.analysis.sweep import boundary_cases
from repro.analysis.tables import render_table
from repro.bounds import run_byzantine_lower_bound
from repro.bounds import run_crash_lower_bound
from repro.bounds.feasibility import max_readers, threshold_table
from repro.registers.base import ClusterConfig
from repro.workloads import ClosedLoopWorkload, run_workload

from benchmarks.conftest import HOP


def test_threshold_table_regeneration(benchmark):
    rows = benchmark(
        lambda: threshold_table(
            S_values=range(3, 21), t_values=(1, 2, 3, 4), b_values=(0, 1, 2)
        )
    )
    # paper's summary formula spot checks
    lookup = {(row.S, row.t, row.b): row.max_fast_readers for row in rows}
    assert lookup[(10, 1, 0)] == 7  # R < 10/1 - 2 = 8
    assert lookup[(20, 4, 0)] == 2  # R < 5 - 2 = 3
    assert lookup[(7, 1, 1)] == 1  # R < 8/2 - 2 = 2
    assert lookup[(20, 2, 2)] == 3  # R < 22/4 - 2 = 3.5
    benchmark.extra_info["table"] = render_table(
        ["S", "t", "b", "maxR"],
        [(r.S, r.t, r.b, int(r.max_fast_readers)) for r in rows[:20]],
    )


@pytest.mark.parametrize(
    "case",
    [c for c in boundary_cases(range(5, 12), (1, 2)) if c.R_bad >= 2][:4],
    ids=lambda c: f"S{c.S}t{c.t}",
)
def test_crash_boundary_validated_both_sides(benchmark, case):
    def measure():
        ok_side = run_workload(
            "fast-crash",
            ClusterConfig(S=case.S, t=case.t, R=case.R_ok),
            workload=ClosedLoopWorkload.contention(ops=5),
            seed=1,
            latency=HOP,
        )
        bad_side = run_crash_lower_bound(S=case.S, t=case.t, R=case.R_bad)
        return ok_side, bad_side

    ok_side, bad_side = benchmark(measure)
    assert ok_side.check_atomic().ok
    assert ok_side.check_fast().ok
    assert bad_side.violated
    benchmark.extra_info["boundary"] = (
        f"S={case.S} t={case.t}: atomic+fast at R={case.R_ok}, "
        f"violated at R={case.R_bad}"
    )


@pytest.mark.parametrize(
    "case",
    [c for c in boundary_cases(range(7, 14), (1,), b_values=(1,)) if c.R_bad >= 2][:3],
    ids=lambda c: f"S{c.S}t{c.t}b{c.b}",
)
def test_byzantine_boundary_validated_both_sides(benchmark, case):
    def measure():
        ok_side = run_workload(
            "fast-byzantine",
            ClusterConfig(S=case.S, t=case.t, b=case.b, R=case.R_ok),
            workload=ClosedLoopWorkload.contention(ops=4),
            seed=1,
            latency=HOP,
        )
        bad_side = run_byzantine_lower_bound(
            S=case.S, t=case.t, b=case.b, R=case.R_bad
        )
        return ok_side, bad_side

    ok_side, bad_side = benchmark(measure)
    assert ok_side.check_atomic().ok
    assert ok_side.check_fast().ok
    assert bad_side.violated
    benchmark.extra_info["boundary"] = (
        f"S={case.S} t={case.t} b={case.b}: ok at R={case.R_ok}, "
        f"violated at R={case.R_bad}"
    )


def test_single_reader_exception(benchmark):
    """R=1 beats the general formula: SWSR works at t < S/2."""

    def measure():
        config = ClusterConfig(S=5, t=2, R=1)
        result = run_workload(
            "swsr-fast",
            config,
            workload=ClosedLoopWorkload.contention(ops=8),
            seed=2,
            latency=HOP,
        )
        return result

    result = benchmark(measure)
    assert result.check_atomic().ok
    assert result.check_fast().ok
    # Figure 2's own formula would refuse this system:
    assert max_readers(S=5, t=2) < 1
    benchmark.extra_info["note"] = "S=5 t=2: SWSR fast at R=1, Figure 2 maxR=0"
