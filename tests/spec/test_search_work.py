"""Work pins: how much the judge does, not only what it answers.

The linearizability search looks at a window of operations in flight and
takes matching reads without branching; the inversion count sweeps.  A
verdict cannot tell those apart from the quadratic versions they
replaced, so these tests count states and inner-scan steps on the
ledger's ``check`` corpus and bound wall time on histories long enough
for a reintroduced ``O(n²)`` to show.
"""

from __future__ import annotations

import time

import pytest

from repro.registers.base import ClusterConfig
from repro.sim.rng import derive_seed
from repro.spec import linearizability
from repro.spec.online import check_history
from repro.workloads.generators import ClosedLoopWorkload
from repro.workloads.runner import run_workload

MWMR = ClusterConfig(S=5, t=1, R=4, W=3)
SWMR = ClusterConfig(S=5, t=1, R=4)


def ledger_history(protocol, config, reads, writes, *path):
    """One history of ``ledger/checkbench.py``'s corpus at ``--seed 0``."""
    load = ClosedLoopWorkload(
        reads_per_reader=reads, writes_per_writer=writes,
        think_time_mean=0.5, start_spread=1.0,
    )
    seed = derive_seed(0, "ledger", "check", *path) % 2**32
    return run_workload(
        protocol, config, load, seed=seed, record_trace=False
    ).history


class CountedMasks(list):
    """Predecessor masks that count lookups: one per inner-scan step."""

    lookups = 0

    def __getitem__(self, index):
        CountedMasks.lookups += 1
        return list.__getitem__(self, index)


def search_work(history, monkeypatch):
    """(states visited, inner-scan steps) of one general search."""
    states = []
    spend = linearizability._Budget.spend
    build = linearizability._preceder_masks

    def counted_spend(self):
        states.append(None)
        spend(self)

    monkeypatch.setattr(linearizability._Budget, "spend", counted_spend)
    monkeypatch.setattr(
        linearizability, "_preceder_masks", lambda seg: CountedMasks(build(seg))
    )
    CountedMasks.lookups = 0
    assert linearizability.find_linearization(history) is not None
    return len(states), CountedMasks.lookups


# The search at PR 19 visited 1 807 / 2 866 / 1 363 states on the three
# multi-writer histories and scanned ~98 operations in each of them.
@pytest.mark.parametrize(
    "protocol, config, reads, writes, path, states",
    [
        ("mwmr", MWMR, 17, 10, ("mwmr", 0), 469),
        ("mwmr", MWMR, 17, 10, ("mwmr", 1), 603),
        ("mwmr", MWMR, 17, 10, ("mwmr", 2), 321),
        ("abd", SWMR, 112, 50, ("swmr", 0), 498),
    ],
)
def test_search_visits_pinned_states_and_scans_a_window(
    protocol, config, reads, writes, path, states, monkeypatch
):
    history = ledger_history(protocol, config, reads, writes, *path)
    clients = len({op.proc for op in history})
    visited, steps = search_work(history, monkeypatch)
    assert visited == states
    # Candidates are pairwise concurrent (one per client at most) and
    # the scan stops at the first blocked operation after them.  Measured
    # 4.1-4.5 steps per state with 7 clients, 1.3 with 5.
    assert steps <= (clients + 1) * visited


@pytest.mark.parametrize(
    "protocol, config, reads, writes, bound_s",
    [
        # 5 000 ops: measured 0.07 s, the quadratic judge took 2.7-3.2 s;
        # 1 000 ops, three writers: 0.09 s against 5.8 s.  Bounds are 10x.
        ("abd", SWMR, 1150, 400, 0.7),
        ("mwmr", MWMR, 175, 100, 0.9),
    ],
)
def test_long_histories_are_judged_in_near_linear_time(
    protocol, config, reads, writes, bound_s
):
    load = ClosedLoopWorkload(
        reads_per_reader=reads, writes_per_writer=writes,
        think_time_mean=0.5, start_spread=1.0,
    )
    history = run_workload(
        protocol, config, load, seed=5, record_trace=False
    ).history
    assert len(history) == config.R * reads + config.W * writes
    begin = time.perf_counter()
    report = check_history(history)
    elapsed = time.perf_counter() - begin
    assert report["ok"]
    assert elapsed < bound_s, f"{len(history)} ops judged in {elapsed:.2f} s"
