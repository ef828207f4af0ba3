"""Workload generation.

Clients in the model have at most one outstanding operation, so load is
generated *closed-loop*: each client issues its next operation a think
time after the previous response.  Writers write monotonically
increasing integers (so histories double as inversion-detection
workloads); readers read.

The generator is deterministic for a fixed seed: think times and start
offsets come from per-client substreams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict

from repro.registers.base import ClusterConfig
from repro.sim.ids import ProcessId
from repro.sim.rng import substream
from repro.sim.runtime import Simulation
from repro.spec.histories import READ, WRITE, Operation


@dataclass(frozen=True)
class ClosedLoopWorkload:
    """Parameters of a closed-loop run.

    Attributes:
        reads_per_reader: operations each reader performs.
        writes_per_writer: operations each writer performs.
        think_time_mean: mean exponential think time between a client's
            response and its next invocation.
        start_spread: client start times are drawn uniformly from
            ``[0, start_spread]``, desynchronising the population.
        contention: with 0 think time and 0 spread every operation
            overlaps — a convenience flag benchmarks use to stress
            concurrent read/write orderings.
        burst_size: operations per burst.  Within a burst the next
            operation fires immediately on response; the think-time draw
            happens only between bursts.  ``1`` (the default) is the
            classic closed loop and draws exactly as before.
    """

    reads_per_reader: int = 10
    writes_per_writer: int = 10
    think_time_mean: float = 2.0
    start_spread: float = 5.0
    burst_size: int = 1

    def __post_init__(self) -> None:
        if self.burst_size < 1:
            raise ValueError(f"burst_size must be >= 1, got {self.burst_size}")

    @staticmethod
    def contention(ops: int = 10) -> "ClosedLoopWorkload":
        """Maximally overlapping workload: everyone fires immediately."""
        return ClosedLoopWorkload(
            reads_per_reader=ops,
            writes_per_writer=ops,
            think_time_mean=0.0,
            start_spread=0.0,
        )


class WorkloadDriver:
    """Arms a :class:`ClosedLoopWorkload` onto a simulation.

    Usage::

        driver = WorkloadDriver(sim, config, workload, seed=7)
        driver.arm()
        sim.run()
    """

    def __init__(
        self,
        sim: Simulation,
        config: ClusterConfig,
        workload: ClosedLoopWorkload,
        seed: int = 0,
    ) -> None:
        self.sim = sim
        self.config = config
        self.workload = workload
        self.seed = seed
        self._remaining: Dict[ProcessId, int] = {}
        self._rng_of: Dict[ProcessId, random.Random] = {}
        self._write_counters: Dict[ProcessId, int] = {}
        self._in_burst: Dict[ProcessId, int] = {}

    def arm(self) -> None:
        """Schedule the first operation of every client and register the
        response hook that keeps the loop going."""
        for pid in self.config.writer_ids:
            self._register(pid, self.workload.writes_per_writer)
        for pid in self.config.reader_ids:
            self._register(pid, self.workload.reads_per_reader)
        self.sim.on_response(self._on_response)

    def _register(self, pid: ProcessId, ops: int) -> None:
        if ops <= 0:
            return
        self._remaining[pid] = ops
        rng = substream(self.seed, "workload", str(pid))
        self._rng_of[pid] = rng
        start = rng.uniform(0.0, self.workload.start_spread) if self.workload.start_spread else 0.0
        self.sim.at(start, lambda pid=pid: self._fire(pid), tag=f"workload:{pid}")

    def _fire(self, pid: ProcessId) -> None:
        if self.sim.process(pid).crashed:
            return
        if self._remaining.get(pid, 0) <= 0:
            return
        self._remaining[pid] -= 1
        if pid.is_writer:
            counter = self._write_counters.get(pid, 0) + 1
            self._write_counters[pid] = counter
            value = counter if self.config.W == 1 else (pid.index, counter)
            self.sim.invoke(pid, WRITE, value)
        else:
            self.sim.invoke(pid, READ)

    def _on_response(self, op: Operation) -> None:
        pid = op.proc
        if self._remaining.get(pid, 0) <= 0:
            return
        burst = self.workload.burst_size
        if burst > 1:
            done = self._in_burst.get(pid, 0) + 1
            if done < burst:
                # mid-burst: fire again immediately, no think-time draw
                self._in_burst[pid] = done
                self.sim.at(
                    self.sim.now, lambda pid=pid: self._fire(pid),
                    tag=f"workload:{pid}",
                )
                return
            self._in_burst[pid] = 0
        rng = self._rng_of[pid]
        think = (
            rng.expovariate(1.0 / self.workload.think_time_mean)
            if self.workload.think_time_mean > 0
            else 0.0
        )
        self.sim.at(
            self.sim.now + think, lambda pid=pid: self._fire(pid), tag=f"workload:{pid}"
        )

    @property
    def total_planned(self) -> int:
        reads = self.workload.reads_per_reader * self.config.R
        writes = self.workload.writes_per_writer * self.config.W
        return reads + writes
