"""One-shot reproduction report.

:func:`generate_report` runs a compact version of every experiment
(E1–E13 but E9) and renders a markdown summary — the quickest way to see the
whole reproduction on one page, and the engine behind ``repro report``.
Each section states the paper's claim and the freshly measured outcome;
any mismatch renders as **FAIL**, making the report double as an
end-to-end self-check.

Sections consume each run's cached validation (latencies tallied online,
verdicts computed once) rather than re-walking histories the runner
already judged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.analysis.metrics import summarize
from repro.analysis.tables import render_table
from repro.bounds import (
    run_byzantine_lower_bound,
    run_crash_lower_bound,
    verify_byzantine_chain,
    verify_crash_chain,
)
from repro.bounds.feasibility import max_readers
from repro.bounds.mwmr_construction import (
    run_mwmr_impossibility,
    run_sequential_family,
)
from repro.registers.ablations import FLAWS
from repro.registers.base import ClusterConfig
from repro.registers.semifast import fast_read_ratio
from repro.sim.latency import ConstantLatency
from repro.workloads import ClosedLoopWorkload, run_workload

HOP = ConstantLatency(1.0)


def render_explore_stats(result) -> str:
    """Progress/coverage summary of one exploration (CLI + report).

    Takes an :class:`repro.explore.ExploreResult`; kept here so every
    surface (CLI, report, CI logs) renders identical numbers.
    """
    stats = result.stats
    scenario = result.scenario
    config = scenario.config
    exhaustive = result.mode == "exhaustive"
    memo_hits = getattr(stats, "memo_hits", 0)
    byzantine_budget = getattr(scenario, "byzantine_budget", 0)
    adversary = f"crash budget {scenario.crash_budget}"
    if byzantine_budget:
        menu = ",".join(scenario.strategies)
        adversary += f", byzantine budget {byzantine_budget} [{menu}]"
    memo = (  # only a memoized exhaustive search has one
        "memo          : {states} states in {variants} variants over {parts} "
        "interned parts"
    )
    memo_lines = [memo.format_map(result.memo)] if getattr(result, "memo", None) else []
    lines = [
        f"target        : {scenario.target}  "
        f"(S={config.S}, t={config.t}, R={config.R}, W={config.W}, "
        f"b={config.b}, {adversary})",
        f"mode          : {result.mode}  depth<={result.depth}  "
        + (
            f"reduction={'on' if result.reduce else 'off'}"
            if exhaustive
            else f"walks={result.walks} seed={result.seed}"
        ),
        f"schedules     : {stats.schedules} covered"
        + ("" if result.complete else "  (truncated by transition budget)"),
        f"transitions   : {stats.transitions} executed"
        + (
            f", {stats.sleep_pruned} pruned by sleep sets"
            f", {memo_hits} memo hits"
            if exhaustive
            else ""
        ),
        *memo_lines,
        f"frontier      : max depth {stats.max_depth_seen}"
        + (f", max branching {stats.max_enabled}" if exhaustive else ""),
        f"violations    : {stats.violations} found, "
        f"{len(result.counterexamples)} distinct counterexample(s) kept",
    ]
    # Accountability verdicts exist only when the adversary could lie;
    # keep crash-only output byte-stable by gating on the budget.
    if byzantine_budget:
        fraud = getattr(stats, "fraud_proofs", 0)
        gaps = getattr(stats, "detectability_gaps", 0)
        lines.append(
            f"accountability: {fraud} violation(s) with a fraud-proof "
            f"certificate, {gaps} detectability gap(s)"
        )
    problem = scenario.resolve().requirement(config)
    if problem is not None:
        lines.append(f"note          : beyond the feasible region ({problem})")
    return "\n".join(lines)


def render_vector_stats(result) -> str:
    """Engine summary of one vectorized sweep (CLI + CI logs).

    Takes a :class:`repro.sim.vector.VectorSweepResult`; duck-typed like
    :func:`render_explore_stats` so every surface renders the same
    numbers.  This is diagnostic stderr output — the sweep table itself
    comes from the shared :class:`~repro.sim.batch.BatchResult` path and
    stays byte-identical to a scalar sweep.
    """
    total = result.vectorized_runs + result.fallback_runs
    lines = [
        f"engine        : vector kernel — {result.vectorized_runs}/{total} "
        f"runs in {len(result.batches)} lockstep batch(es), "
        f"{result.fallback_runs} via the scalar engine",
        f"oracle        : {result.oracle_sampled} run(s) replayed through "
        "the scalar engine, all bit-exact",
    ]
    rounds = result.rounds
    if rounds:
        parts = [
            f"{kind} {n} round(s): {count}"
            for kind in sorted(rounds)
            for n, count in sorted(rounds[kind].items())
        ]
        lines.append(f"rounds        : {'  '.join(parts)}")
    checked = [b.atomic_ok for b in result.batches if b.atomic_ok is not None]
    if checked:
        verdict = "ok" if all(checked) else "VIOLATION"
        fast = sum(b.runs for b in result.batches if b.reads_fast)
        lines.append(
            f"verdicts      : atomicity {verdict} over {sum(1 for _ in checked)} "
            f"batch(es); fast reads in {fast}/{result.vectorized_runs} runs"
        )
    for reason, count in sorted(result.fallback_reasons.items()):
        lines.append(f"fallback      : {count} run(s): {reason}")
    return "\n".join(lines)


def format_seconds(value: float) -> str:
    """Human latency: ``413µs``, ``1.24ms``, ``2.05s``."""
    if value < 1e-3:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.2f}s"


def _ascii_histogram(hist, width: int = 40) -> str:
    """Bars over the occupied latency buckets of a LatencyHistogram."""
    buckets = hist.nonzero_buckets()
    if not buckets:
        return "  (no samples)"
    peak = max(count for _, count in buckets)
    lines = []
    for edge, count in buckets:
        bar = "#" * max(1, round(width * count / peak))
        lines.append(f"  <= {format_seconds(edge):>8s}  {bar} {count}")
    return "\n".join(lines)


def render_load_report(report) -> str:
    """Plain-text rendering of a :class:`repro.net.loadgen.LoadReport`.

    One block per concern: configuration, throughput, the read/write
    latency distributions (p50/p90/p99 straight off the mergeable
    histograms), measured round counts with the fast-read fraction the
    paper is about, and the correctness verdicts the merged history was
    judged by — the networked service answers to the same checkers as
    the simulator.
    """
    spec = report.spec
    read, write = report.read_hist, report.write_hist
    rounds = report.rounds_histogram()
    lines = [
        f"protocol      : {spec.protocol}  "
        f"(S={len(spec.addresses)}, t={spec.t}, b={spec.b}, "
        f"R={spec.readers}, W={spec.writers})",
        f"load          : {report.clients} virtual clients on "
        f"{spec.shards} shard(s), seed={spec.seed}",
        f"completed     : {report.ops_complete} ops in "
        f"{report.duration:.2f}s ({report.throughput:.0f} ops/s), "
        f"{report.ops_incomplete} incomplete, "
        f"{report.dropped} dropped frames",
    ]
    for kind, hist in (("read", read), ("write", write)):
        if hist.count:
            lines.append(
                f"{kind:5s} latency : p50={format_seconds(hist.quantile(0.50))} "
                f"p90={format_seconds(hist.quantile(0.90))} "
                f"p99={format_seconds(hist.quantile(0.99))} "
                f"max={format_seconds(hist.maximum)} (n={hist.count})"
            )
    read_rounds = ", ".join(
        f"{n} round(s): {count}" for n, count in sorted(rounds["read"].items())
    )
    lines.append(
        f"read rounds   : {read_rounds or 'none measured'}  "
        f"fast-read fraction={report.fast_read_fraction:.3f}"
    )
    verdicts = ", ".join(
        f"{name}={'skipped' if ok is None else ('ok' if ok else 'VIOLATION')}"
        for name, ok in sorted(report.verdicts.items())
    )
    lines.append(f"verdicts      : {verdicts}")
    accountability = getattr(report, "accountability", None)
    if accountability is not None:
        accused = accountability.get("accused") or []
        lines.append(
            f"accountability: {accountability.get('statements', 0)} signed "
            f"statements collected "
            f"({accountability.get('rejected', 0)} rejected), "
            f"{len(accountability.get('accusations', []))} accusation(s)"
            + (f" — accused: {', '.join(accused)}" if accused else "")
        )
    if getattr(report, "window_initial", None) is not None:
        lines.append(
            f"window judge  : pre-window value {report.window_initial!r} "
            "treated as the window's initial value"
        )
    chaos_shards = getattr(report, "chaos_shards", None)
    if chaos_shards:
        totals: dict = {}
        for record in chaos_shards.values():
            for key, count in (record.get("stats") or {}).items():
                totals[key] = totals.get(key, 0) + count
        lines.append(
            f"chaos         : {totals.get('frames', 0)} frames intercepted — "
            f"{totals.get('dropped', 0)} dropped, "
            f"{totals.get('delayed', 0)} delayed, "
            f"{totals.get('duplicated', 0)} duplicated, "
            f"{totals.get('reordered', 0)} reordered, "
            f"{totals.get('partition_dropped', 0)} partition-dropped"
        )
    degradation = getattr(report, "degradation", None)
    if degradation is not None:
        ops = degradation.get("ops", {})
        lines.append(
            f"degradation   : ops fast={ops.get('fast', 0)} "
            f"slow={ops.get('slow', 0)} timed_out={ops.get('timed_out', 0)} "
            f"(slow > {degradation.get('slow_threshold_s', 0):g}s); "
            f"retransmits={degradation.get('retransmits', 0)} "
            f"reconnects={degradation.get('reconnects', 0)} "
            f"connect_failures={degradation.get('connect_failures', 0)}"
        )
        uptime = degradation.get("uptime") or {}
        if uptime:
            lines.append(
                "link uptime   : "
                + "  ".join(
                    f"s{server}={fraction:.0%}"
                    for server, fraction in sorted(
                        uptime.items(), key=lambda kv: int(kv[0])
                    )
                )
            )
    if report.sim_check is not None:
        check = report.sim_check
        lines.append(
            "sim cross-chk : net read rounds "
            f"{check['net_read_rounds']} vs sim {check['sim_read_rounds']} "
            f"at R={check['sim_config']['R']}: "
            f"{'agree' if check['agree'] else 'DISAGREE'}"
        )
    if read.count:
        lines.append("read latency histogram:")
        lines.append(_ascii_histogram(read))
    return "\n".join(lines)


def _section_explorer() -> Section:
    from repro.explore import ExploreScenario, explore
    from repro.registers.base import ClusterConfig as CC

    clean = explore(
        ExploreScenario("fast-crash", CC(S=4, t=1, R=1)), depth=6
    )
    broken = explore(
        ExploreScenario("naive-fast-mwmr", CC(S=2, t=1, R=1, W=2)), depth=7
    )
    unpruned = explore(
        ExploreScenario("fast-crash", CC(S=4, t=1, R=1)),
        depth=6,
        reduce=False,
    )
    ratio = unpruned.stats.transitions / max(1, clean.stats.transitions)
    ok = (
        not clean.found_violation
        and broken.found_violation
        and ratio > 1.5
    )
    return Section(
        title="E12 — schedule-space explorer (bounded model checking)",
        claim="every bounded schedule keeps Figure 2 atomic; the naive "
        "MWMR strawman admits a counterexample; reduction prunes the space",
        measured=(
            f"fast-crash S=4,t=1,R=1 depth 6: {clean.stats.schedules} "
            f"schedules, 0 violations; naive MWMR depth 7: counterexample "
            f"of {len(broken.counterexamples[0].schedule) if broken.counterexamples else '?'} "
            f"actions; sleep-set reduction {ratio:.1f}x"
        ),
        ok=ok,
    )


@dataclass
class Section:
    title: str
    claim: str
    measured: str
    ok: bool

    def render(self) -> str:
        status = "ok" if self.ok else "**FAIL**"
        return (
            f"### {self.title}\n\n"
            f"*Claim*: {self.claim}\n\n"
            f"*Measured*: {self.measured}  [{status}]\n"
        )


def _read_mean(protocol: str, config: ClusterConfig, seed: int = 1) -> float:
    result = run_workload(
        protocol,
        config,
        workload=ClosedLoopWorkload(reads_per_reader=6, writes_per_writer=3),
        seed=seed,
        latency=HOP,
    )
    assert result.check_atomic().ok
    return summarize(result.read_latencies()).mean


def _section_latency() -> Section:
    fast = _read_mean("fast-crash", ClusterConfig(S=8, t=1, R=3))
    maxmin = _read_mean("maxmin", ClusterConfig(S=8, t=1, R=3))
    abd = _read_mean("abd", ClusterConfig(S=8, t=1, R=3))
    ok = fast < maxmin < abd and abs(fast - 2.0) < 1e-6
    return Section(
        title="E1/E8 — one-round reads (Figure 2)",
        claim="fast reads cost 2 message delays; max-min 3; ABD 4",
        measured=f"read means: fast {fast:.3f}, max-min {maxmin:.3f}, ABD {abd:.3f}",
        ok=ok,
    )


def _section_byzantine() -> Section:
    config = ClusterConfig(S=8, t=1, b=1, R=2)
    result = run_workload(
        "fast-byzantine",
        config,
        workload=ClosedLoopWorkload.contention(ops=5),
        seed=3,
        latency=HOP,
    )
    atomic = result.check_atomic().ok
    fast = result.check_fast().ok
    return Section(
        title="E2 — signed fast register (Figure 5)",
        claim="atomic and fast when S > (R+2)t + (R+1)b",
        measured=f"S=8,t=b=1,R=2 under contention: atomic={atomic}, fast={fast}",
        ok=atomic and fast,
    )


def _section_crash_bound() -> Section:
    evidence = run_crash_lower_bound(S=4, t=1, R=2)
    return Section(
        title="E3 — Section 5 lower bound (Figures 1/3/4)",
        claim="R >= S/t - 2 admits a run where a later read returns ⊥ after a 1",
        measured=(
            f"pr^C executed: {evidence.read_results}; "
            f"checker: {evidence.verdict.describe()}"
        ),
        ok=evidence.violated,
    )


def _section_byzantine_bound() -> Section:
    evidence = run_byzantine_lower_bound(S=7, t=1, b=1, R=2)
    return Section(
        title="E4 — Section 6.2 lower bound (Figure 6)",
        claim="(R+2)t + (R+1)b >= S admits the same violation despite signatures",
        measured=f"pr^C executed at S=7,t=b=1,R=2: {evidence.read_results}",
        ok=evidence.violated,
    )


def _section_mwmr() -> Section:
    chain = run_mwmr_impossibility(S=4)
    baseline = run_sequential_family(S=4, protocol="mwmr")
    ok = chain.violated and not baseline.violated
    return Section(
        title="E5 — Proposition 11 (Figure 7)",
        claim="no fast MWMR register; two-round MWMR is fine",
        measured=(
            f"naive candidate violated at {chain.first_violation.label}; "
            f"baseline passed {len(baseline.outcomes)} runs"
        ),
        ok=ok,
    )


def _section_regular() -> Section:
    from repro.bounds.feasibility import fast_feasible, regular_fast_feasible

    ok = regular_fast_feasible(5, 2) and not fast_feasible(5, 2, 1)
    return Section(
        title="E6 — Section 8 separation",
        claim="fast regular works at t < S/2 for any R; fast atomic cannot",
        measured="S=5,t=2: regular feasible for any R, Figure-2 maxR = "
        f"{int(max_readers(5, 2))}",
        ok=ok,
    )


def _section_thresholds() -> Section:
    rows = [
        (S, t, int(max_readers(S, t)))
        for S in (5, 8, 10, 12)
        for t in (1, 2)
    ]
    table = render_table(["S", "t", "maxR"], rows)
    spot = max_readers(10, 1) == 7 and max_readers(12, 2) == 3
    return Section(
        title="E7 — the main theorem table",
        claim="maxR = ceil((S - 2t - b)/(t + b)) - 1",
        measured="\n\n```\n" + table + "\n```\n",
        ok=bool(spot),
    )


def _section_chains() -> Section:
    crash = verify_crash_chain(S=4, t=1, R=2)
    byz = verify_byzantine_chain(S=7, t=1, b=1, R=2)
    return Section(
        title="E10 — executable proof skeletons",
        claim="every indistinguishability claim of Sections 5/6.2 holds",
        measured=(
            f"crash chain: {len(crash.claims)} claims, all hold={crash.all_hold}; "
            f"Byzantine chain: {len(byz.claims)} claims, all hold={byz.all_hold}"
        ),
        ok=crash.all_hold and byz.all_hold,
    )


def _section_ablations() -> Section:
    from repro.explore import flaw_witness

    witnesses = {
        name: flaw_witness(flaw) for name, flaw in FLAWS.items() if not flaw.expected_ok
    }
    broken = {
        name: witness is not None and witness.control_verdict.ok
        for name, witness in witnesses.items()
    }
    return Section(
        title="E13 — ablations of Figures 2 and 5",
        claim="every guard a flaw-table row removes is load-bearing: the explorer "
        "breaks the flawed protocol, the faithful one survives the same schedule",
        measured=", ".join(
            f"{name}: broken in {len(witnesses[name].counterexample.schedule)} actions"
            if ok
            else f"{name}: ?"
            for name, ok in broken.items()
        ),
        ok=all(broken.values()),
    )


def _section_semifast() -> Section:
    from repro.sim.latency import UniformLatency

    config = ClusterConfig(S=5, t=2, R=6)
    captured = {}
    result = run_workload(
        "semifast",
        config,
        workload=ClosedLoopWorkload(reads_per_reader=10, writes_per_writer=8,
                                    think_time_mean=0.5),
        seed=2,
        latency=UniformLatency(0.2, 2.5),
        cluster_hook=lambda cluster: captured.update(cluster=cluster),
    )
    ratio = fast_read_ratio(captured["cluster"])
    atomic = result.check_atomic().ok
    return Section(
        title="E11 — semifast salvage beyond the bound",
        claim="atomicity for any R at t < S/2, with most reads still fast",
        measured=f"S=5,t=2,R=6: atomic={atomic}, fast-read ratio={ratio:.2f}",
        ok=atomic and 0.0 < ratio <= 1.0,
    )


SECTIONS: List[Callable[[], Section]] = [
    _section_latency,
    _section_byzantine,
    _section_crash_bound,
    _section_byzantine_bound,
    _section_mwmr,
    _section_regular,
    _section_thresholds,
    _section_chains,
    _section_ablations,
    _section_semifast,
    _section_explorer,
]


def generate_report() -> Tuple[str, bool]:
    """Render the markdown report; returns ``(text, all_ok)``."""
    sections = [build() for build in SECTIONS]
    all_ok = all(section.ok for section in sections)
    header = (
        "# Reproduction report — How Fast can a Distributed Atomic Read be?\n\n"
        f"overall: {'all claims reproduced' if all_ok else 'MISMATCHES FOUND'}\n"
    )
    body = "\n".join(section.render() for section in sections)
    return header + "\n" + body, all_ok
