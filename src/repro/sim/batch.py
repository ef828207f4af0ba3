"""Batched seed x config sweeps across worker processes.

The sweep runner grinds a ``protocol x scenario x seed`` matrix through
the fast-path engine, optionally fanning the independent runs across a
:mod:`multiprocessing` pool.  Three properties are load-bearing:

* **Determinism** — every run derives all randomness from its spec's
  seed via :func:`repro.sim.rng.substream`, so a run's summary depends
  only on the spec, never on which worker executed it or when.
* **Order independence** — results are collected in spec order
  (``Pool.map`` preserves input order), so serial and parallel sweeps
  produce *byte-identical* reports.  Summaries never embed wall-clock
  time; the runner reports elapsed time separately.
* **Cheap transport** — workers return compact :class:`RunSummary`
  records (floats and bools), not histories or traces, so the pickling
  cost per run is negligible next to the simulation itself.

Usage::

    specs = build_matrix(
        protocols=["fast-crash", "abd"],
        scenarios=["write-storm", "reader-churn"],
        config=ClusterConfig(S=8, t=1, R=3),
        seeds=seed_matrix(0, 16),
    )
    result = BatchRunner(specs, parallel=4).run()
    print(result.render())
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.metrics import (
    LatencySummary,
    merge_summaries,
    summarize_by_kind,
    throughput,
)
from repro.analysis.tables import render_table
from repro.errors import ConfigurationError
from repro.registers.base import ClusterConfig
from repro.sim.latency import LatencyModel
from repro.sim.rng import derive_seed


def default_mp_context() -> str:
    """``fork`` where available (cheap on Linux), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def map_parallel(fn, items, parallel: int = 1):
    """Map ``fn`` over ``items`` across worker processes, order preserved.

    The deterministic backbone shared by the sweep runner, the load
    generator and the explorer's random walks: results always come back
    in input order (``Pool.map`` semantics), so a caller that merges
    them left-to-right produces byte-identical output whether the work
    ran serially or on any number of workers.  ``fn`` and every item
    must pickle.
    """
    items = list(items)
    parallel = max(1, int(parallel))
    if parallel == 1 or len(items) <= 1:
        return [fn(item) for item in items], 1
    workers = min(parallel, len(items))
    ctx = multiprocessing.get_context(default_mp_context())
    with ctx.Pool(processes=workers) as pool:
        results = pool.map(fn, items, chunksize=1)
    return results, workers


@dataclass(frozen=True, slots=True)
class SweepSpec:
    """One cell of a sweep matrix: a fully deterministic run recipe.

    Specs cross process boundaries, so every field must pickle: the
    scenario travels by name and the latency model as its (dataclass)
    instance.
    """

    protocol: str
    scenario: str
    config: ClusterConfig
    seed: int
    latency: Optional[LatencyModel] = None
    max_events: int = 2_000_000
    check: bool = True

    def label(self) -> str:
        return f"{self.protocol}/{self.scenario}/seed={self.seed}"


@dataclass(frozen=True, slots=True)
class RunSummary:
    """The deterministic, picklable residue of one simulated run.

    Deliberately excludes wall-clock time: summaries must be identical
    whether the run executed serially or on any worker.
    """

    protocol: str
    scenario: str
    seed: int
    ops_complete: int
    events: int
    messages: int
    read: LatencySummary
    write: LatencySummary
    throughput: float
    atomic_ok: Optional[bool]

    def row(self) -> Tuple:
        return (
            self.protocol,
            self.scenario,
            self.seed,
            self.ops_complete,
            self.events,
            self.messages,
            f"{self.read.mean:.4f}",
            f"{self.read.p99:.4f}",
            f"{self.write.mean:.4f}",
            f"{self.throughput:.4f}",
            _verdict_str(self.atomic_ok),
        )

    def to_dict(self) -> Dict:
        return {
            "protocol": self.protocol,
            "scenario": self.scenario,
            "seed": self.seed,
            "ops_complete": self.ops_complete,
            "events": self.events,
            "messages": self.messages,
            "read_mean": self.read.mean,
            "read_p50": self.read.p50,
            "read_p95": self.read.p95,
            "read_p99": self.read.p99,
            "write_mean": self.write.mean,
            "write_p99": self.write.p99,
            "throughput": self.throughput,
            "atomic_ok": self.atomic_ok,
        }


ROW_HEADERS = [
    "protocol", "scenario", "seed", "ops", "events", "msgs",
    "read mean", "read p99", "write mean", "ops/time", "atomic",
]

GROUP_HEADERS = [
    "protocol", "scenario", "runs", "ops", "events", "msgs",
    "read mean", "read p99", "write mean", "atomic",
]


def _verdict_str(ok: Optional[bool]) -> str:
    if ok is None:
        return "-"
    return "ok" if ok else "VIOLATION"


def execute_spec(spec: SweepSpec) -> RunSummary:
    """Run one spec to completion and summarise it (worker entry point)."""
    return summarize_run(spec, run_spec(spec))


def run_spec(spec: SweepSpec, record_trace: bool = False) -> Any:
    """Run one spec to completion; the :class:`RunResult` it leaves."""
    # Imported here so a worker's import cost is paid once per process,
    # and to keep repro.sim free of an import cycle with the workloads
    # layer (batch sits above both).
    from repro.workloads.runner import run_scenario

    return run_scenario(
        spec.protocol,
        spec.config,
        scenario=spec.scenario,
        seed=spec.seed,
        latency=spec.latency,
        record_trace=record_trace,
        max_events=spec.max_events,
    )


def summarize_run(spec: SweepSpec, result: Any) -> RunSummary:
    """The :class:`RunSummary` of ``spec``'s run, traced or not."""
    # The run's online validator already tallied completions and
    # latencies while the simulation executed; the atomicity verdict is
    # computed once here and cached, so nothing downstream re-checks.
    validation = result.validation
    summaries = summarize_by_kind(
        validation.read_latencies, validation.write_latencies
    )
    return RunSummary(
        protocol=spec.protocol,
        scenario=spec.scenario,
        seed=spec.seed,
        ops_complete=validation.ops_complete,
        events=result.events_executed,
        messages=result.messages_sent(),
        read=summaries["read"],
        write=summaries["write"],
        throughput=throughput(result.history),
        atomic_ok=result.check_atomic().ok if spec.check else None,
    )


@dataclass
class BatchResult:
    """Summaries of a sweep, in spec order, plus aggregate views."""

    specs: List[SweepSpec]
    summaries: List[RunSummary]
    elapsed: float = 0.0
    parallel: int = 1

    def grouped(self) -> List[Dict]:
        """Merge summaries per ``(protocol, scenario)``, in first-seen order."""
        order: List[Tuple[str, str]] = []
        buckets: Dict[Tuple[str, str], List[RunSummary]] = {}
        for summary in self.summaries:
            key = (summary.protocol, summary.scenario)
            if key not in buckets:
                buckets[key] = []
                order.append(key)
            buckets[key].append(summary)
        out = []
        for key in order:
            runs = buckets[key]
            checked = [r.atomic_ok for r in runs if r.atomic_ok is not None]
            out.append(
                {
                    "protocol": key[0],
                    "scenario": key[1],
                    "runs": len(runs),
                    "ops_complete": sum(r.ops_complete for r in runs),
                    "events": sum(r.events for r in runs),
                    "messages": sum(r.messages for r in runs),
                    "read": merge_summaries([r.read for r in runs]),
                    "write": merge_summaries([r.write for r in runs]),
                    "atomic_ok": all(checked) if checked else None,
                }
            )
        return out

    def render(self) -> str:
        """Deterministic plain-text report (no wall-clock content)."""
        per_run = render_table(
            ROW_HEADERS,
            [summary.row() for summary in self.summaries],
            title="Sweep runs",
        )
        grouped_rows = []
        for group in self.grouped():
            grouped_rows.append(
                (
                    group["protocol"],
                    group["scenario"],
                    group["runs"],
                    group["ops_complete"],
                    group["events"],
                    group["messages"],
                    f"{group['read'].mean:.4f}",
                    f"{group['read'].p99:.4f}",
                    f"{group['write'].mean:.4f}",
                    _verdict_str(group["atomic_ok"]),
                )
            )
        merged = render_table(
            GROUP_HEADERS, grouped_rows, title="Merged by protocol x scenario"
        )
        return f"{per_run}\n\n{merged}"

    def to_json(self) -> str:
        """Deterministic JSON report (no wall-clock content)."""
        groups = []
        for group in self.grouped():
            flat = dict(group)
            read, write = flat.pop("read"), flat.pop("write")
            flat["read_mean"], flat["read_p99"] = read.mean, read.p99
            flat["write_mean"], flat["write_p99"] = write.mean, write.p99
            groups.append(flat)
        payload = {
            "runs": [summary.to_dict() for summary in self.summaries],
            "groups": groups,
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @property
    def all_ok(self) -> bool:
        return all(s.atomic_ok is not False for s in self.summaries)


class BatchRunner:
    """Execute a list of :class:`SweepSpec` serially or across workers.

    Args:
        specs: the matrix cells, in the order results should appear.
        parallel: worker-process count; ``<= 1`` runs in-process.
    """

    def __init__(self, specs: Sequence[SweepSpec], parallel: int = 1) -> None:
        self.specs = list(specs)
        self.parallel = max(1, int(parallel))

    def run(self) -> BatchResult:
        import time

        start = time.perf_counter()
        # map_parallel returns results in input order regardless of
        # completion order — the byte-identical guarantee.
        summaries, used = map_parallel(execute_spec, self.specs, self.parallel)
        elapsed = time.perf_counter() - start
        return BatchResult(
            specs=self.specs, summaries=summaries, elapsed=elapsed, parallel=used
        )


def seed_matrix(root: int, count: int) -> List[int]:
    """``count`` independent, stable seeds derived from one root seed."""
    if count < 1:
        raise ConfigurationError(f"a sweep needs at least one seed, got {count}")
    return [derive_seed(root, "sweep", index) % 2**32 for index in range(count)]


def build_matrix(
    protocols: Sequence[str],
    scenarios: Sequence[str],
    config: ClusterConfig,
    seeds: Sequence[int],
    latency: Optional[LatencyModel] = None,
    max_events: int = 2_000_000,
    check: bool = True,
    skip_infeasible: bool = True,
) -> List[SweepSpec]:
    """Cross ``protocols x scenarios x seeds`` into an ordered spec list.

    Protocols whose feasibility requirement rejects ``config`` are
    skipped (with ``skip_infeasible``, the default) rather than failing
    the whole sweep — a sweep over many protocols at one config is the
    common shape and thresholds differ per protocol.  With
    ``skip_infeasible=False`` an infeasible protocol raises
    :class:`~repro.errors.ConfigurationError` up front instead of
    producing specs that would only fail (or silently misbehave) once
    the sweep is already running.
    """
    from repro.registers.registry import get_protocol
    from repro.workloads.scenarios import get_scenario

    specs: List[SweepSpec] = []
    for protocol in protocols:
        proto_spec = get_protocol(protocol)
        problem = proto_spec.requirement(config)
        if problem is not None:
            if not skip_infeasible:
                raise ConfigurationError(
                    f"protocol {protocol!r} is infeasible for {config}: {problem}"
                )
            continue
        for scenario in scenarios:
            get_scenario(scenario)  # fail fast on unknown names
            for seed in seeds:
                specs.append(
                    SweepSpec(
                        protocol=protocol,
                        scenario=scenario,
                        config=config,
                        seed=seed,
                        latency=latency,
                        max_events=max_events,
                        check=check,
                    )
                )
    return specs
