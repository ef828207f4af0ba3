#!/usr/bin/env python3
"""Scenario: the Section 8 trade-off — speed for everyone, or atomicity?

A config-store cluster of 5 servers tolerating 2 crashes must serve a
growing reader fleet:

* the fast *atomic* register (Figure 2) requires R < S/t - 2, which at
  S=5, t=2 supports... zero readers;
* the fast *regular* register only needs t < S/2 and serves any fleet —
  but concurrent readers can see a new value and then an old one
  (new/old inversion), which some applications cannot tolerate.

The example quantifies the inversion rate under contention, shows a
concrete inversion certificate, and prints the decision table Section 8
implies.

Run:  python examples/regular_vs_atomic.py
"""

from repro import (
    BOTTOM,
    ClusterConfig,
    ScriptedExecution,
    check_swmr_atomicity,
    check_swmr_regularity,
    fast_feasible,
    max_readers,
)
from repro.analysis.tables import render_table
from repro.bounds.feasibility import regular_fast_feasible
from repro.registers.regular import SPEC
from repro.sim.ids import reader, server, writer
from repro.spec.regularity import count_new_old_inversions


def decision_table() -> None:
    rows = []
    for S in (5, 7, 9, 12, 16):
        for t in (1, 2):
            rows.append(
                (
                    S,
                    t,
                    "yes" if regular_fast_feasible(S, t) else "no",
                    int(max_readers(S, t)),
                )
            )
    print(
        render_table(
            ["S", "t", "fast regular (any R)?", "max fast-atomic readers"],
            rows,
            title="Section 8's decision table",
        )
    )


def inversion_certificate() -> None:
    """One scripted run showing exactly what regularity permits."""
    config = ClusterConfig(S=5, t=2, R=2)
    cluster = SPEC.build(config)
    execution = ScriptedExecution()
    cluster.install(execution)

    write_op = execution.invoke(writer(1), "write", "v2")
    execution.deliver_requests(write_op, to=[server(1)])  # write in flight
    read1 = execution.invoke(reader(1), "read")
    via1 = [server(1), server(2), server(3)]
    execution.deliver_requests(read1, to=via1)
    execution.deliver_replies(read1, from_=via1)
    read2 = execution.invoke(reader(2), "read")
    via2 = [server(3), server(4), server(5)]
    execution.deliver_requests(read2, to=via2)
    execution.deliver_replies(read2, from_=via2)

    print("scripted run:")
    print(execution.history.describe())
    print(check_swmr_regularity(execution.history).describe())
    print(check_swmr_atomicity(execution.history).describe())
    assert read1.result == "v2" and read2.result == BOTTOM


def inversion_rate() -> None:
    """Fuzz with a writer that crashes mid-multicast: the half-written
    value lingers at a minority and sequential readers flip-flop."""
    from repro.registers.registry import get_protocol
    from repro.sim.latency import UniformLatency
    from repro.sim.runtime import Simulation

    config = ClusterConfig(S=5, t=2, R=4)
    total_reads = 0
    total_inversions = 0
    for seed in range(20):
        cluster = get_protocol("regular-fast").build(config)
        sim = Simulation(seed=seed, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        sim.invoke_at(0.0, writer(1), "write", 1)
        # second write reaches only 1 of 5 servers, then the writer dies
        sim.at(4.0, lambda: sim.crash_after_sends(writer(1), 1))
        sim.invoke_at(4.0, writer(1), "write", 2)
        for index in range(12):
            sim.invoke_at(6.0 + 0.8 * index, reader(1 + index % 4), "read", None)
        sim.run()
        assert check_swmr_regularity(sim.history).ok
        count, _ = count_new_old_inversions(sim.history)
        total_inversions += count
        total_reads += len([op for op in sim.history.reads if op.complete])
    print(
        f"over 20 runs with a mid-write crash: {total_reads} reads, "
        f"{total_inversions} new/old inversion pairs — permitted by "
        "regularity, forbidden by atomicity"
    )


def main() -> None:
    print("cluster: S=5, t=2 (a majority quorum system)\n")
    assert regular_fast_feasible(5, 2)
    assert not fast_feasible(5, 2, R=1)
    print(
        "fast regular register: feasible for ANY reader count\n"
        "fast atomic register:  infeasible even for one reader via Figure 2\n"
        "(the single-reader SWSR register covers exactly R = 1; R >= 2 is "
        "provably impossible at S=5, t=2)\n"
    )
    decision_table()
    print()
    inversion_certificate()
    print()
    inversion_rate()
    print(
        "\nTake-away (Section 8): pick regular for read-scale, atomic for "
        "consistency; the paper's thresholds tell you exactly when you may "
        "have both."
    )


if __name__ == "__main__":
    main()
