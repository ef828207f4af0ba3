"""Tests for the ablations of Figures 2 and 5."""

from hashlib import sha256

import pytest

from repro.explore import flaw_witness, replay_counterexample
from repro.registers.ablations import FLAWS
from repro.registers.base import ClusterConfig
from repro.registers.fast_crash import SPEC
from repro.sim.latency import UniformLatency
from repro.sim.runtime import Simulation
from repro.spec.atomicity import check_swmr_atomicity
from repro.spec.histories import BOTTOM

BREAKABLE = sorted(name for name, flaw in FLAWS.items() if not flaw.expected_ok)


def _read_results(history):
    return [op.result for op in history.reads if op.complete]


class TestEachAblationBreaks:
    """Every breakable row's witness: a shrunk violation the explorer
    finds inside the feasible region, which the faithful protocol
    survives under the same schedule."""

    @pytest.mark.parametrize("name", BREAKABLE)
    def test_witness_demonstrates_necessity(self, name):
        flaw = FLAWS[name]
        witness = flaw_witness(flaw)
        assert witness is not None, name
        found = witness.counterexample
        assert found.scenario.target == flaw.target
        assert flaw.base.requirement(found.scenario.config) is None
        assert replay_counterexample(found)["violates"]
        assert witness.control_verdict.ok, found.describe()

    @pytest.mark.parametrize(
        "name,length,digest",
        [
            ("eager-reader", 12, "51d003aa96ba8943"),
            ("timid-reader", 8, "8094ffff2cc6e48c"),
            ("no-seen-reset", 24, "9bfdb6fadc622fec"),
            ("hasty-writer", 7, "a81ea1e8c2c25dbb"),
            ("gullible-reader", 6, "caa88ebae2e4aed4"),
            ("crash-predicate", 12, "365410f27a38458e"),
        ],
    )
    def test_witness_schedule_is_pinned(self, name, length, digest):
        # the hunt is seeded and the shrink deterministic: a change to an
        # ablation's body that alters its behaviour moves these
        schedule = flaw_witness(FLAWS[name]).counterexample.schedule
        assert len(schedule) == length
        assert sha256("\n".join(schedule).encode()).hexdigest()[:16] == digest

    def test_witness_is_hunted_once_per_row(self):
        # the report and these tests share one hunt per row
        for name in BREAKABLE:
            assert flaw_witness(FLAWS[name]) is flaw_witness(FLAWS[name]), name

    def test_eager_reader_returns_then_loses_value(self):
        witness = flaw_witness(FLAWS["eager-reader"])
        assert _read_results(witness.counterexample.history) == [1, BOTTOM]
        assert _read_results(witness.control) == [BOTTOM, BOTTOM]

    def test_timid_reader_ignores_completed_write(self):
        witness = flaw_witness(FLAWS["timid-reader"])
        history = witness.counterexample.history
        assert history.writes[0].complete
        assert _read_results(history) == [BOTTOM]
        assert _read_results(witness.control) == [1]

    def test_no_seen_reset_fires_predicate_spuriously(self):
        witness = flaw_witness(FLAWS["no-seen-reset"])
        results = _read_results(witness.counterexample.history)
        fired = results.index(1)  # the polluted predicate fired
        assert BOTTOM in results[fired + 1:]

    def test_hasty_writer_completes_then_vanishes(self):
        witness = flaw_witness(FLAWS["hasty-writer"])
        assert witness.counterexample.history.writes[0].complete  # one ack
        assert not witness.control.writes[0].complete  # faithful: pending


class TestAblatedComponentsInFreeRuns:
    """Ablated variants also fail under randomized load, not only under
    the hand-crafted schedule (where breakage needs partial writes)."""

    def test_timid_reader_fails_fuzz(self):
        config = ClusterConfig(S=8, t=1, R=2)
        cluster = FLAWS["timid-reader"].build(config)
        sim = Simulation(seed=1, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        from repro.sim.ids import reader, writer

        sim.invoke_at(0.0, writer(1), "write", 1)
        sim.invoke_at(5.0, reader(1), "read", None)
        sim.run()
        assert not check_swmr_atomicity(sim.history).ok

    def test_eager_reader_with_mid_write_crash_fails(self):
        """Sequential (non-overlapping) reads after a one-server write:
        whenever an early read's quorum samples the lone written server
        and a later read's quorum misses it, atomicity breaks."""
        config = ClusterConfig(S=8, t=1, R=2)
        found_violation = False
        for seed in range(25):
            cluster = FLAWS["eager-reader"].build(config)
            sim = Simulation(seed=seed, latency=UniformLatency(0.5, 1.5))
            cluster.install(sim)
            from repro.sim.ids import reader, writer

            sim.at(0.0, lambda: sim.crash_after_sends(writer(1), 1))
            sim.invoke_at(0.0, writer(1), "write", 1)
            # spacing 4.0 > 2 * max latency keeps the reads sequential,
            # so condition 4 applies between consecutive reads
            for index in range(8):
                sim.invoke_at(
                    3.0 + 4.0 * index, reader(1 + index % 2), "read", None
                )
            sim.run()
            if not check_swmr_atomicity(sim.history).ok:
                found_violation = True
                break
        assert found_violation


class TestNoCounterServer:
    """The counters' necessity is established only by the Lemma 4 case
    analysis; these tests document that the ablated server still works
    on well-ordered runs and record the reordering fuzz outcome."""

    def test_behaves_normally_without_stale_messages(self):
        config = ClusterConfig(S=8, t=1, R=3)
        cluster = FLAWS["no-counter"].build(config)
        sim = Simulation(seed=0, latency=UniformLatency(0.5, 1.5))
        cluster.install(sim)
        from repro.sim.ids import reader, writer

        sim.invoke_at(0.0, writer(1), "write", 1)
        sim.invoke_at(5.0, reader(1), "read", None)
        sim.run()
        assert check_swmr_atomicity(sim.history).ok

    def test_accepts_stale_counter_messages(self):
        """The ablated server answers a read message older than one it
        already answered — exactly what line 26 forbids."""
        from repro.faults.byzantine import run_captured
        from repro.registers import messages as msg
        from repro.registers.timestamps import INITIAL_TAG
        from repro.sim.ids import reader, server

        config = ClusterConfig(S=8, t=1, R=3)
        honest = SPEC.build(config).honest_server(1)
        ablated = FLAWS["no-counter"].automaton(server(1), config)
        new_msg = msg.FastRead(op_id=2, tag=INITIAL_TAG, r_counter=2)
        stale_msg = msg.FastRead(op_id=1, tag=INITIAL_TAG, r_counter=1)
        assert run_captured(honest, new_msg, reader(1), 0.0)
        assert not run_captured(honest, stale_msg, reader(1), 0.0)
        assert run_captured(ablated, new_msg, reader(1), 0.0)
        assert run_captured(ablated, stale_msg, reader(1), 0.0)  # the bug
