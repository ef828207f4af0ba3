"""E6 — Section 8: regular vs atomic, the time-complexity separation.

Paper claims:

* a fast SWMR *regular* register exists iff ``t < S/2``, for any finite
  number of readers;
* a fast SWMR *atomic* register needs the much stronger ``t < S/(R+2)``;
* the price of choosing the regular register is consistency: new/old
  inversions that atomicity forbids.

Measured shape: at ``S = 5, t = 2`` the regular register serves any
reader count fast while the atomic protocol cannot even serve one
reader; the regular register exhibits concrete new/old inversions under
scripted concurrency (and stays perfectly regular); per-operation
latency of the two fast protocols is identical where both exist.
"""

import pytest

from repro.bounds.feasibility import fast_feasible, regular_fast_feasible
from repro.registers.base import ClusterConfig
from repro.registers.regular import requirement as regular_requirement
from repro.registers.fast_crash import requirement as atomic_requirement
from repro.spec.regularity import count_new_old_inversions

from benchmarks.conftest import measured_run, read_write_means


def test_feasibility_frontier_comparison(benchmark):
    """Tabulate where each register family admits a fast implementation."""

    def build_table():
        rows = []
        for S in range(3, 16):
            for t in range(1, min(S, 5)):
                regular_ok = regular_fast_feasible(S, t)
                atomic_r = 0
                while fast_feasible(S, t, atomic_r + 1):
                    atomic_r += 1
                rows.append((S, t, regular_ok, atomic_r))
        return rows

    rows = benchmark(build_table)
    # regular strictly dominates: wherever atomic serves >= 1 reader,
    # regular is feasible too, and regular is feasible at points where
    # atomic serves none (e.g. S=5, t=2).
    for S, t, regular_ok, atomic_r in rows:
        if atomic_r >= 1:
            assert regular_ok
    assert (5, 2, True, 0) in rows
    benchmark.extra_info["frontier_rows"] = len(rows)


def test_regular_serves_many_readers_where_atomic_cannot(benchmark):
    config = ClusterConfig(S=5, t=2, R=6)
    assert regular_requirement(config) is None
    assert atomic_requirement(config) is not None

    result = benchmark(lambda: measured_run("regular-fast", config, seed=3))
    assert result.check_regular().ok
    assert result.check_fast().ok
    assert read_write_means(result)["read_mean"] == pytest.approx(2.0)
    benchmark.extra_info["S_t_R"] = "5/2/6"


def test_inversion_price_under_contention(benchmark):
    """Count new/old inversions the regular register actually produces
    when a write lingers half-applied (writer crash mid-multicast);
    atomic protocols produce zero by definition (their histories pass
    the atomicity checker)."""
    from repro.registers.registry import get_protocol
    from repro.sim.ids import reader, writer
    from repro.sim.latency import UniformLatency
    from repro.sim.runtime import Simulation
    from repro.spec.regularity import check_swmr_regularity

    config = ClusterConfig(S=5, t=2, R=4)

    def measure():
        total_inversions = 0
        regular_ok = True
        for seed in range(10):
            cluster = get_protocol("regular-fast").build(config)
            sim = Simulation(seed=seed, latency=UniformLatency(0.5, 1.5))
            cluster.install(sim)
            sim.invoke_at(0.0, writer(1), "write", 1)
            sim.at(4.0, lambda: sim.crash_after_sends(writer(1), 1))
            sim.invoke_at(4.0, writer(1), "write", 2)
            for index in range(12):
                sim.invoke_at(
                    6.0 + 0.8 * index, reader(1 + index % 4), "read", None
                )
            sim.run()
            regular_ok &= check_swmr_regularity(sim.history).ok
            count, _ = count_new_old_inversions(sim.history)
            total_inversions += count
        return total_inversions, regular_ok

    inversions, regular_ok = benchmark(measure)
    assert regular_ok
    assert inversions > 0  # the consistency price is real, not theoretical
    benchmark.extra_info["inversion_pairs_over_10_seeds"] = inversions


def test_scripted_inversion_certificate(benchmark):
    """One concrete regular-not-atomic run (the Section 8 distinction)."""
    from repro.registers.regular import SPEC
    from repro.sim.controller import ScriptedExecution
    from repro.sim.ids import reader, server, writer
    from repro.spec.atomicity import check_swmr_atomicity
    from repro.spec.regularity import check_swmr_regularity

    def run():
        config = ClusterConfig(S=5, t=2, R=2)
        cluster = SPEC.build(config)
        execution = ScriptedExecution()
        cluster.install(execution)
        write_op = execution.invoke(writer(1), "write", "new")
        execution.deliver_requests(write_op, to=[server(1)])
        read1 = execution.invoke(reader(1), "read")
        via1 = [server(1), server(2), server(3)]
        execution.deliver_requests(read1, to=via1)
        execution.deliver_replies(read1, from_=via1)
        read2 = execution.invoke(reader(2), "read")
        via2 = [server(3), server(4), server(5)]
        execution.deliver_requests(read2, to=via2)
        execution.deliver_replies(read2, from_=via2)
        return execution

    execution = benchmark(run)
    assert check_swmr_regularity(execution.history).ok
    assert not check_swmr_atomicity(execution.history).ok
    benchmark.extra_info["witness"] = "read1='new', read2='⊥' after it"
