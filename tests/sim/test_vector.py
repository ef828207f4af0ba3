"""Tests for the struct-of-arrays vectorized sweep kernel.

The kernel's one promise is bit-exactness: a ``--vector`` sweep must be
indistinguishable from a scalar sweep on stdout, and the built-in
oracle must catch any divergence.  These tests pin the parity directly
(whole matrices compared summary for summary), probe it randomly
(hypothesis drawing protocol x config x scenario x seed), verify every
documented fallback reason, and prove the oracle actually fires by
sabotaging the kernel.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, ReproError
from repro.registers.base import ClusterConfig
from repro.registers.registry import PROTOCOLS
from repro.sim.batch import (
    BatchRunner,
    SweepSpec,
    build_matrix,
    execute_spec,
    run_spec,
    seed_matrix,
    summarize_run,
)
from repro.sim.latency import UniformLatency
from repro.sim import vector
from repro.sim.vector import (
    FALLBACK_NOTICE,
    VectorMismatchError,
    run_vector_sweep,
    supports,
)
from repro.workloads.scenarios import SCENARIOS

np = pytest.importorskip("numpy")

CONFIG = ClusterConfig(S=5, t=1, R=2)

# Every protocol with a VectorProfile, with a config its requirement
# accepts (swsr-fast additionally needs R=1).
SUPPORTED = [
    ("fast-crash", CONFIG),
    ("regular-fast", CONFIG),
    ("abd", CONFIG),
    ("maxmin", CONFIG),
    ("swsr-fast", ClusterConfig(S=5, t=1, R=1)),
]

CRASH_FREE = ["smoke", "read-heavy", "write-heavy", "contention", "write-storm"]

# Figure 2's fast read at the sweep-vector workload's size.
FIGURE_2 = ClusterConfig(S=13, t=3, R=2)


def spec_for(protocol, config, scenario, seed, **kwargs):
    return SweepSpec(
        protocol=protocol, scenario=scenario, config=config, seed=seed, **kwargs
    )


class TestSupports:
    def test_supported_combinations(self):
        for protocol, config in SUPPORTED:
            assert supports(spec_for(protocol, config, "smoke", 1)) is None

    def test_non_fixed_round_protocol_falls_back(self):
        reason = supports(spec_for("semifast", CONFIG, "smoke", 1))
        assert reason == "protocol 'semifast' is not a fixed-round automaton"

    def test_infeasible_config_falls_back(self):
        tight = ClusterConfig(S=8, t=1, R=8)
        reason = supports(spec_for("fast-crash", tight, "smoke", 1))
        assert "infeasible" in reason

    def test_non_constant_latency_falls_back(self):
        spec = spec_for(
            "fast-crash", CONFIG, "smoke", 1, latency=UniformLatency()
        )
        reason = supports(spec)
        assert reason == "latency model UniformLatency is not constant"

    def test_crash_scenario_falls_back(self):
        reason = supports(spec_for("fast-crash", CONFIG, "reader-churn", 1))
        assert reason == "scenario 'reader-churn' injects crashes"

    def test_tie_sensitive_combination_falls_back(self):
        # contention has zero spread and zero think time; abd reads are
        # 4 hops vs 2-hop writes, so exact-instant ties at the servers
        # resolve through event-queue chains the lockstep model does
        # not carry.
        reason = supports(spec_for("abd", CONFIG, "contention", 1))
        assert "tie-sensitive" in reason

    def test_equal_hop_protocol_supports_contention(self):
        assert supports(spec_for("fast-crash", CONFIG, "contention", 1)) is None

    def test_event_budget_falls_back(self):
        spec = spec_for("fast-crash", CONFIG, "write-storm", 1, max_events=10)
        assert "max_events" in supports(spec)

    def test_missing_numpy_falls_back(self, monkeypatch):
        monkeypatch.setattr(vector, "np", None)
        assert supports(spec_for("fast-crash", CONFIG, "smoke", 1)) == (
            "numpy is unavailable"
        )


class TestParity:
    @pytest.mark.parametrize(
        "protocols, scenarios, config",
        [
            (["fast-crash", "regular-fast", "abd", "maxmin"], ["smoke", "write-storm"], CONFIG),
            # A large cluster over bursty writers, synchronized contention
            # and read-dominated traffic (the retired throughput bench's grid).
            (
                ["fast-crash", "regular-fast"],
                ["write-storm", "contention", "read-heavy"],
                ClusterConfig(S=13, t=3, R=2),
            ),
        ],
    )
    def test_matrix_summaries_bit_identical_to_scalar(self, protocols, scenarios, config):
        specs = build_matrix(
            protocols=protocols,
            scenarios=scenarios,
            config=config,
            seeds=seed_matrix(0, 3),
        )
        scalar = BatchRunner(specs, parallel=1).run()
        sweep = run_vector_sweep(specs)
        assert sweep.fallback_runs == 0
        assert sweep.batch.summaries == scalar.summaries
        assert sweep.batch.render() == scalar.render()
        assert sweep.batch.to_json() == scalar.to_json()
        assert sweep.oracle_sampled > 0

    def test_mixed_matrix_with_fallback_matches_scalar(self):
        specs = build_matrix(
            protocols=["fast-crash", "semifast"],
            scenarios=["smoke", "reader-churn"],
            config=CONFIG,
            seeds=seed_matrix(1, 2),
        )
        scalar = BatchRunner(specs, parallel=1).run()
        sweep = run_vector_sweep(specs)
        assert sweep.fallback_runs == 6  # semifast entirely + crash scenario
        assert sweep.vectorized_runs == 2
        assert sweep.batch.summaries == scalar.summaries
        reasons = set(sweep.fallback_reasons)
        assert "protocol 'semifast' is not a fixed-round automaton" in reasons
        assert "scenario 'reader-churn' injects crashes" in reasons

    def test_no_check_sweep(self):
        specs = build_matrix(
            protocols=["fast-crash"],
            scenarios=["smoke"],
            config=CONFIG,
            seeds=seed_matrix(2, 3),
            check=False,
        )
        sweep = run_vector_sweep(specs)
        scalar = BatchRunner(specs, parallel=1).run()
        assert sweep.batch.summaries == scalar.summaries
        assert all(s.atomic_ok is None for s in sweep.batch.summaries)

    def test_batch_summaries_shape(self):
        specs = build_matrix(
            protocols=["fast-crash"],
            scenarios=["write-storm"],
            config=CONFIG,
            seeds=seed_matrix(3, 4),
        )
        sweep = run_vector_sweep(specs)
        assert len(sweep.batches) == 1
        batch = sweep.batches[0]
        assert batch.runs == 4
        assert batch.oracle_sampled == 2
        assert batch.atomic_ok is True
        assert batch.reads_fast is True
        assert batch.protocol == "fast-crash"
        # write-storm: 10 reads per reader (R=2) and 40 writes, per run.
        assert batch.rounds["read"][1] == 4 * 10 * 2
        assert sweep.rounds["write"][1] == 4 * 40


@settings(max_examples=12, deadline=None)
@given(
    combo=st.sampled_from(SUPPORTED),
    scenario=st.sampled_from(CRASH_FREE),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_property_sampled_run_agrees_with_oracle(combo, scenario, seed):
    """Any (protocol, config, scenario, seed) the kernel claims to
    support must replay bit-exactly through the scalar engine — the
    oracle inside run_vector_sweep raises VectorMismatchError on any
    divergence in op times, values, rounds or verdicts."""
    protocol, config = combo
    spec = spec_for(protocol, config, scenario, seed)
    reason = supports(spec)
    if reason is not None:
        # The only admissible reason in this grid is the documented
        # tie-sensitivity gate on synchronized mixed-round workloads.
        assert "tie-sensitive" in reason
        return
    sweep = run_vector_sweep([spec], oracle_samples=1)
    assert sweep.oracle_sampled == 1
    scalar = BatchRunner([spec], parallel=1).run()
    assert sweep.batch.summaries == scalar.summaries


class TestOracle:
    def test_oracle_detects_sabotaged_kernel(self, monkeypatch):
        specs = build_matrix(
            protocols=["fast-crash"],
            scenarios=["smoke"],
            config=CONFIG,
            seeds=seed_matrix(4, 3),
        )
        original = vector._GroupKernel.run_chunk

        def sabotaged(self, chunk_specs):
            chunk = original(self, chunk_specs)
            victim = chunk.summaries[0]
            chunk.summaries[0] = dataclasses.replace(
                victim, throughput=victim.throughput + 1.0
            )
            return chunk

        monkeypatch.setattr(vector._GroupKernel, "run_chunk", sabotaged)
        with pytest.raises(VectorMismatchError):
            run_vector_sweep(specs, oracle_samples=3)

    def test_oracle_detects_wrong_timeline(self, monkeypatch):
        specs = build_matrix(
            protocols=["fast-crash"],
            scenarios=["write-storm"],
            config=CONFIG,
            seeds=seed_matrix(5, 2),
        )
        original = vector._timeline_arrays

        def shifted(seeds, plan, d, workload):
            inv, resp = original(seeds, plan, d, workload)
            return inv + 0.25, resp + 0.25

        monkeypatch.setattr(vector, "_timeline_arrays", shifted)
        with pytest.raises(VectorMismatchError):
            run_vector_sweep(specs, oracle_samples=2)

    def test_mismatch_error_is_a_repro_error(self):
        assert issubclass(VectorMismatchError, ReproError)

    @pytest.mark.parametrize(
        "protocol, scenario",
        [
            (protocol, scenario)
            for protocol in sorted(PROTOCOLS)
            for scenario in SCENARIOS
            if supports(spec_for(protocol, FIGURE_2, scenario, 7)) is None
        ],
    )
    def test_a_traced_run_summarises_like_an_untraced_one(self, protocol, scenario):
        """The oracle's one traced replay stands in for the untraced run a
        scalar sweep summarises: same :class:`RunSummary` either way."""
        spec = spec_for(protocol, FIGURE_2, scenario, 7)
        traced = summarize_run(spec, run_spec(spec, record_trace=True))
        assert traced == execute_spec(spec)

    def test_oracle_can_be_disabled(self):
        specs = build_matrix(
            protocols=["fast-crash"],
            scenarios=["smoke"],
            config=CONFIG,
            seeds=seed_matrix(6, 2),
        )
        sweep = run_vector_sweep(specs, oracle_samples=0)
        assert sweep.oracle_sampled == 0
        assert sweep.batch.summaries == BatchRunner(specs).run().summaries


def collect_chunks(monkeypatch):
    """Every ``_ChunkResult`` the sweep builds, in order."""
    chunks = []
    original = vector._GroupKernel.run_chunk

    def recording(self, chunk_specs):
        chunks.append(original(self, chunk_specs))
        return chunks[-1]

    monkeypatch.setattr(vector._GroupKernel, "run_chunk", recording)
    return chunks


class TestTimelineArrays:
    """Timelines are generated into the chunk's field arrays, and groups
    with the same hop structure share those arrays."""

    def test_same_hop_groups_share_one_array_per_chunk(self, monkeypatch):
        seeds = 5
        specs = build_matrix(
            protocols=["fast-crash", "regular-fast"],
            scenarios=["write-storm"],
            config=CONFIG,
            seeds=seed_matrix(8, seeds),
        )
        generated = []
        original_arrays = vector._timeline_arrays

        def counting(seeds, plan, d, workload):
            generated.extend(seeds)
            return original_arrays(seeds, plan, d, workload)

        monkeypatch.setattr(vector, "_timeline_arrays", counting)
        chunks = collect_chunks(monkeypatch)
        sweep = run_vector_sweep(specs)
        assert len(generated) == seeds
        assert [chunk.kernel.template.protocol for chunk in chunks] == [
            "fast-crash",
            "regular-fast",
        ]
        first, second = chunks
        assert first.inv is second.inv and first.resp is second.resp
        assert first.inv.dtype == np.float64
        assert first.inv.shape == (seeds, len(first.kernel.plan.is_write))
        assert not first.inv.flags.writeable
        assert sweep.batch.summaries == BatchRunner(specs).run().summaries

    @pytest.mark.parametrize(
        "scenario",
        [
            name for name in SCENARIOS
            if supports(spec_for("fast-crash", FIGURE_2, name, 1)) is None
        ],
    )
    def test_timelines_equal_the_scalar_drivers_for_every_run(
        self, monkeypatch, scenario
    ):
        """Every row of the chunk's ``(inv, resp)`` is the client-major
        ``(invoked_at, responded_at)`` of the scalar run; a client that
        draws nothing (``contention``) is never seeded."""
        from repro.workloads.runner import run_scenario

        seeds = seed_matrix(11, 5)
        specs = [spec_for("fast-crash", FIGURE_2, scenario, s) for s in seeds]
        seeded = []
        original = vector.substream

        def counting(*path):
            seeded.append(path)
            return original(*path)

        kernel = vector._GroupKernel(specs[0], {})
        with monkeypatch.context() as patch:
            patch.setattr(vector, "substream", counting)
            inv, resp = kernel._timelines(specs)
        for row, seed in enumerate(seeds):
            result = run_scenario(
                "fast-crash", FIGURE_2, scenario=scenario, seed=seed,
                record_trace=False,
            )
            per_proc = {proc: [] for proc in kernel.plan.proc_of}
            for op in result.history.complete_operations:
                per_proc[str(op.proc)].append((op.invoked_at, op.responded_at))
            scalar = [times for ops in per_proc.values() for times in ops]
            assert list(zip(inv[row].tolist(), resp[row].tolist())) == scalar
        workload = SCENARIOS[scenario].workload
        draws = workload.start_spread > 0 or workload.think_time_mean > 0
        clients = len(kernel.plan.clients)
        assert len(seeded) == (len(seeds) * clients if draws else 0)

    def test_different_hop_structures_do_not_share(self, monkeypatch):
        specs = build_matrix(
            protocols=["fast-crash", "abd"],
            scenarios=["write-storm"],
            config=CONFIG,
            seeds=seed_matrix(9, 3),
        )
        chunks = collect_chunks(monkeypatch)
        run_vector_sweep(specs)
        assert chunks[0].inv is not chunks[1].inv

    def test_summaries_and_batches_match_the_recorded_digest(self):
        """sha256 of ``repr(summaries) + repr(batches)`` as recorded
        before the timelines became shared arrays: S=13 t=3 R=2, two
        protocols x three scenarios x 200 seeds in chunks of 128, so
        every group has a full chunk and a ragged last one."""
        import hashlib

        specs = build_matrix(
            protocols=["fast-crash", "regular-fast"],
            scenarios=["write-storm", "contention", "read-heavy"],
            config=ClusterConfig(S=13, t=3, R=2),
            seeds=seed_matrix(0, 200),
        )
        sweep = run_vector_sweep(specs, chunk_size=128)
        assert len(sweep.batches) == 12
        assert sweep.fallback_runs == 0
        text = repr(sweep.batch.summaries) + repr(sweep.batches)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "f408bfe1294d38a2004e07fcd692c15077584f7dd118db15f2bc69c2a4076b49"
        )


class TestSlottedRecords:
    def test_records_have_no_instance_dict_and_pickle(self):
        import pickle

        specs = build_matrix(
            protocols=["fast-crash"],
            scenarios=["smoke"],
            config=CONFIG,
            seeds=seed_matrix(10, 1),
        )
        summary = run_vector_sweep(specs).batch.summaries[0]
        for record in (specs[0], summary, summary.read, summary.write):
            assert not hasattr(record, "__dict__"), type(record).__name__
            assert pickle.loads(pickle.dumps(record)) == record
        with pytest.raises(dataclasses.FrozenInstanceError):
            summary.seed = 1


class TestBadSizes:
    SPECS = build_matrix(
        protocols=["fast-crash"], scenarios=["smoke"], config=CONFIG, seeds=[1]
    )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"oracle_samples": -1}, "oracle_samples must be >= 0"),
            ({"chunk_size": 0}, "chunk_size must be >= 1"),
            ({"chunk_size": -4}, "chunk_size must be >= 1"),
        ],
    )
    def test_rejected_not_clamped(self, kwargs, message):
        with pytest.raises(ConfigurationError, match=message):
            run_vector_sweep(self.SPECS, **kwargs)


class TestCli:
    def test_vector_sweep_stdout_identical_and_notice_on_stderr(self, capsys):
        from repro.cli import main

        base = [
            "sweep",
            "--protocols",
            "fast-crash",
            "--scenarios",
            "smoke",
            "reader-churn",
            "--servers",
            "5",
            "--t",
            "1",
            "--readers",
            "2",
            "--seeds",
            "2",
        ]
        assert main(base) == 0
        scalar_out = capsys.readouterr().out
        assert main(base + ["--vector"]) == 0
        captured = capsys.readouterr()
        assert captured.out == scalar_out
        assert FALLBACK_NOTICE in captured.err
        assert "injects crashes" in captured.err
        assert "bit-exact" in captured.err

    def test_vector_stats_rendering(self):
        from repro.analysis.report import render_vector_stats

        specs = build_matrix(
            protocols=["fast-crash"],
            scenarios=["smoke"],
            config=CONFIG,
            seeds=seed_matrix(7, 2),
        )
        text = render_vector_stats(run_vector_sweep(specs))
        assert "vector kernel — 2/2 runs" in text
        assert "replayed through" in text
        assert "atomicity ok" in text
