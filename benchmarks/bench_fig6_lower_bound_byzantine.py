"""E4 — Figure 6: the Section 6.2 Byzantine lower bound, executed.

Paper claim (Proposition 10): for ``t >= 1``, ``R >= 2`` and
``(R+2)t + (R+1)b >= S`` no fast implementation exists even with
unforgeable signatures; block ``B_{R+1}`` "loses its memory" towards one
reader.

Measured shape: the executed ``pr^C`` — with genuinely two-faced servers
that never forge a signature — yields a checker-certified violation at
every sampled grid point beyond the threshold, including the ``b = 0``
degenerate case that collapses onto Proposition 5.
"""


from repro.bounds import run_byzantine_lower_bound
from repro.bounds.feasibility import construction_applies
from repro.errors import InfeasibleConstructionError
from repro.spec.histories import BOTTOM


def test_minimal_byzantine_pr_c(benchmark):
    result = benchmark(lambda: run_byzantine_lower_bound(S=7, t=1, b=1, R=2))
    assert result.violated
    assert result.read_results["r1 read #2"] == BOTTOM
    benchmark.extra_info["read_results"] = {
        k: str(v) for k, v in result.read_results.items()
    }


def test_byzantine_lower_bound_grid(benchmark):
    grid = [
        (S, t, b, R)
        for S in range(3, 15)
        for t in (1, 2)
        for b in (0, 1, 2)
        for R in (2, 3)
        if b <= t and t < S and construction_applies(S, t, R, b)
    ]

    def sweep():
        outcomes = {}
        for S, t, b, R in grid:
            result = run_byzantine_lower_bound(S=S, t=t, b=b, R=R)
            outcomes[(S, t, b, R)] = result.violated
        return outcomes

    outcomes = benchmark(sweep)
    assert all(outcomes.values()), {
        point: ok for point, ok in outcomes.items() if not ok
    }
    benchmark.extra_info["grid_points"] = len(grid)


def test_feasible_region_refused(benchmark):
    feasible = [
        (S, t, b, R)
        for S in range(8, 16)
        for t in (1,)
        for b in (0, 1)
        for R in (2, 3)
        if not construction_applies(S, t, R, b)
    ]

    def sweep():
        refusals = 0
        for S, t, b, R in feasible:
            try:
                run_byzantine_lower_bound(S=S, t=t, b=b, R=R)
            except InfeasibleConstructionError:
                refusals += 1
        return refusals

    refusals = benchmark(sweep)
    assert refusals == len(feasible)
    benchmark.extra_info["refused"] = refusals


def test_b_widens_the_impossible_region(benchmark):
    """For fixed (S, t, R) on the crash-feasible side, raising b flips
    the system into the impossible region: the liars' head start costs
    (R+1) servers each."""

    def measure():
        # S=11, t=2, R=2: crash bound (R+2)t = 8 < 11 -> feasible at b=0;
        # b=1 adds (R+1)b = 3 -> 11 >= 11: the construction applies.
        S, t, R = 11, 2, 2
        assert not construction_applies(S, t, R, b=0)
        assert construction_applies(S, t, R, b=1)
        return run_byzantine_lower_bound(S=S, t=t, b=1, R=R).violated

    violated = benchmark(measure)
    assert violated
    benchmark.extra_info["flip_point"] = "S=11 t=2 R=2: feasible at b=0, violated at b=1"
