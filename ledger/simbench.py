"""The two sweep workloads: the event kernel and the numpy kernel."""

from __future__ import annotations

import hashlib
import time
from typing import Any, Dict, List

from repro.registers.base import ClusterConfig
from repro.registers.registry import get_protocol
from repro.sim import batch, vector
from repro.sim.batch import BatchRunner, build_matrix, seed_matrix

from common import Workload, seed32
from tracing import automaton_points, layer_s, per, self_s


class Sweep(Workload):
    """A ``protocol x scenario x seed`` matrix at S=13, t=3, R=2."""

    primary = "runs_per_s"
    PROTOCOLS: tuple = ()
    SCENARIOS: tuple = ()
    SEEDS = 0

    def setup(self) -> None:
        self.config = ClusterConfig(S=13, t=3, R=2)
        self.root = seed32(self.seed, self.name, "matrix")
        seeds = self.size(self.SEEDS)
        self.specs = build_matrix(
            self.PROTOCOLS, self.SCENARIOS, self.config,
            seed_matrix(self.root, seeds), skip_infeasible=False,
        )
        # one run of every (protocol, scenario) cell
        self.warm_specs = self.specs[::seeds]

    def inputs_digest(self) -> str:
        text = ",".join(spec.label() for spec in self.specs)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def sweep(self, specs):
        """Run ``specs``; returns ``(BatchResult, problems, info)``."""
        raise NotImplementedError

    def warmup(self) -> None:
        self.sweep(self.warm_specs)

    def rep(self) -> Dict[str, Any]:
        begin = time.perf_counter_ns()
        result, problems, info = self.sweep(self.specs)
        end = time.perf_counter_ns()
        wall = (end - begin) / 1e9
        summaries = result.summaries
        bad = sum(1 for s in summaries if s.atomic_ok is False)
        events = sum(s.events for s in summaries)
        info.update(events=events, runs=len(summaries))
        return {
            "wall_s": wall,
            "windows": {"op": (begin, end)},
            "e2e": {"runs_per_s": len(summaries) / wall},
            "counts": {
                "runs": len(summaries),
                "events": events,
                "ops": sum(s.ops_complete for s in summaries),
            },
            "attempted": len(summaries),
            "failed": min(len(summaries), bad + len(problems)),
            "problems": problems + ([f"{bad} runs not atomic"] if bad else []),
            "info": info,
        }

    def automata(self) -> List[tuple]:
        points, seen = [], set()
        for name in self.PROTOCOLS:
            cluster = get_protocol(name).build(self.config, enforce=False)
            for point in automaton_points(
                cluster.all_processes(),
                "registers:client_step", "registers:server_step",
            ):
                if point[:2] not in seen:
                    seen.add(point[:2])
                    points.append(point)
        return points

    def trace_points(self) -> List[tuple]:
        from repro.sim.runtime import Simulation
        from repro.spec.online import HistoryValidator
        from repro.workloads import runner

        return self.automata() + [
            (BatchRunner, "run", "sim.batch:run"),
            (batch, "execute_spec", "sim.batch:execute_spec",
             {"tag": lambda spec: spec.label()}),
            (batch, "summarize_by_kind", "analysis:summarize"),
            (batch, "throughput", "analysis:throughput"),
            (runner, "run_workload", "workloads:run_workload"),
            (Simulation, "run", "sim:run"),
            (Simulation, "emit", "sim:emit"),
            (Simulation, "record_response", "sim:record_response"),
            (HistoryValidator, "observe_response", "spec:observe"),
            (HistoryValidator, "atomic_verdict", "spec:atomic_verdict"),
        ]

    def shares(self, agg, rep) -> Dict[str, float]:
        wall, ops = rep["wall_s"], rep["counts"]["ops"]
        spec = self_s(agg, "spec:observe", "spec:atomic_verdict", "spec:fast_verdict")
        analysis = layer_s(agg, "analysis") + self_s(agg, "sim.vector:summaries")
        glue = self_s(agg, "sim.batch:run", "sim.batch:execute_spec",
                      "workloads:run_workload", "workloads:run_scenario")
        return {
            "registers.client_step_us_per_op":
                per(self_s(agg, "registers:client_step"), ops, 1e6),
            "registers.server_step_us_per_op":
                per(self_s(agg, "registers:server_step"), ops, 1e6),
            "spec.judge_share": per(spec, wall),
            "sim.run_share": per(
                self_s(agg, "sim:run", "sim:emit", "sim:record_response"), wall),
            "sim.batch.overhead_share": per(glue, wall),
            "analysis.summary_share": per(analysis, wall),
        }


class SweepScalar(Sweep):
    name = "sweep-scalar"
    PROTOCOLS = ("fast-crash", "abd", "semifast", "regular-fast")
    SCENARIOS = ("write-storm", "reader-churn", "fault-burst")
    SEEDS = 24

    def sweep(self, specs):
        result = BatchRunner(specs, parallel=1).run()
        return result, [], {}

    def layers(self, aggs, counts, rep) -> Dict[str, float]:
        info = rep["info"]
        out = self.shares(aggs["op"], rep)
        out["sim.events_per_run"] = per(info["events"], info["runs"])
        return out

    def secondary(self, rep) -> Dict[str, float]:
        return {"sim.events_per_s": per(rep["info"]["events"], rep["wall_s"])}


class SweepVector(Sweep):
    name = "sweep-vector"
    PROTOCOLS = ("fast-crash", "regular-fast")
    SCENARIOS = ("write-storm", "contention", "read-heavy")
    SEEDS = 3000

    def sweep(self, specs, oracle_samples=vector.DEFAULT_ORACLE_SAMPLES):
        problems = []
        # An oracle mismatch raises VectorMismatchError: no result, exit != 0.
        result = vector.run_vector_sweep(specs, oracle_samples=oracle_samples)
        if result.fallback_runs:
            problems.append(f"{result.fallback_runs} runs fell back to the "
                            f"event kernel: {result.fallback_reasons}")
        info = {"oracle_sampled": result.oracle_sampled,
                "fallback_runs": result.fallback_runs}
        return result.batch, problems, info

    def trace_points(self) -> List[tuple]:
        from repro.spec.online import HistoryValidator
        from repro.workloads import runner

        return super().trace_points() + [
            (vector, "run_vector_sweep", "sim.vector:sweep"),
            (vector._GroupKernel, "run_chunk", "sim.vector:kernel"),
            (vector, "_row_summaries", "sim.vector:summaries"),
            (vector, "merge_summaries", "analysis:merge_summaries"),
            (runner, "run_scenario", "workloads:run_scenario"),
            (HistoryValidator, "fast_verdict", "spec:fast_verdict"),
        ]

    def layers(self, aggs, counts, rep) -> Dict[str, float]:
        agg, info, wall = aggs["op"], rep["info"], rep["wall_s"]
        out = self.shares(agg, rep)
        oracle = sum(
            agg[name]["total_s"]
            for name in ("sim.batch:run", "workloads:run_scenario") if name in agg
        )
        out.update({
            "sim.vector.oracle_share": per(oracle, wall),
            "sim.vector.oracle_sampled_runs": info["oracle_sampled"],
            "sim.vector.fallback_runs": info["fallback_runs"],
        })
        return out

    def secondary(self, rep) -> Dict[str, float]:
        """The kernel alone: the same matrix with the oracle switched off."""
        begin = time.perf_counter()
        self.sweep(self.specs, oracle_samples=0)
        wall = time.perf_counter() - begin
        return {"sim.vector.kernel_runs_per_s": len(self.specs) / wall}
