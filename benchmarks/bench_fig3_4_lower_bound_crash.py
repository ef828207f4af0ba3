"""E3 — Figures 1, 3, 4: the Section 5 lower bound, executed.

Paper claim (Proposition 5): for ``t >= 1``, ``R >= 2``, ``R >= S/t - 2``
no fast atomic SWMR implementation exists; the proof's final partial run
``pr^C`` makes one reader return ``⊥`` after another returned 1.

Measured shape: executing ``pr^C`` against the Figure 2 protocol
instantiated beyond its threshold produces a checker-certified atomicity
violation at *every* grid point with ``R >= S/t - 2``, and the
construction is impossible (the block partition does not exist) at every
feasible point — the theorem's "if and only if" as a table.
"""


from repro.analysis.sweep import boundary_cases
from repro.bounds import run_crash_lower_bound
from repro.bounds.feasibility import construction_applies
from repro.errors import InfeasibleConstructionError
from repro.spec.histories import BOTTOM


def test_introduction_example_pr_c(benchmark):
    """S=4, t=1, R=2: the smallest violating system of the paper."""
    result = benchmark(lambda: run_crash_lower_bound(S=4, t=1, R=2))
    assert result.violated
    assert result.read_results["r2 read #1"] == 1
    assert result.read_results["r1 read #2"] == BOTTOM
    benchmark.extra_info["read_results"] = {
        k: str(v) for k, v in result.read_results.items()
    }


def test_lower_bound_grid(benchmark):
    """The impossibility region of the (S, t, R) grid, demonstrated."""
    grid = [
        (S, t, R)
        for S in range(3, 13)
        for t in (1, 2, 3)
        for R in (2, 3, 4)
        if t < S and construction_applies(S, t, R)
    ]

    def sweep():
        outcomes = {}
        for S, t, R in grid:
            result = run_crash_lower_bound(S=S, t=t, R=R)
            outcomes[(S, t, R)] = result.violated
        return outcomes

    outcomes = benchmark(sweep)
    assert all(outcomes.values()), {
        point: ok for point, ok in outcomes.items() if not ok
    }
    benchmark.extra_info["grid_points"] = len(grid)
    benchmark.extra_info["violations"] = sum(outcomes.values())


def test_feasible_region_admits_no_construction(benchmark):
    """Inside R < S/t - 2 the partition the proof needs does not exist."""
    feasible = [
        (S, t, R)
        for S in range(4, 13)
        for t in (1, 2)
        for R in (2, 3)
        if t < S and not construction_applies(S, t, R)
    ]

    def sweep():
        refusals = 0
        for S, t, R in feasible:
            try:
                run_crash_lower_bound(S=S, t=t, R=R)
            except InfeasibleConstructionError:
                refusals += 1
        return refusals

    refusals = benchmark(sweep)
    assert refusals == len(feasible)
    benchmark.extra_info["feasible_points_refused"] = refusals


def test_boundary_pairs(benchmark):
    """Exactly at the frontier: feasible at maxR, violated at maxR + 1."""
    cases = [c for c in boundary_cases(range(4, 12), range(1, 4)) if c.R_bad >= 2]

    def sweep():
        table = []
        for case in cases:
            result = run_crash_lower_bound(S=case.S, t=case.t, R=case.R_bad)
            table.append((case.S, case.t, case.R_ok, case.R_bad, result.violated))
        return table

    table = benchmark(sweep)
    assert all(row[-1] for row in table)
    benchmark.extra_info["boundary_rows"] = [
        f"S={s} t={t} ok@R={ok} violated@R={bad}" for s, t, ok, bad, _ in table
    ]
