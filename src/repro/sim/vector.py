"""Struct-of-arrays vectorized sweep kernel.

The scalar sweep runner (:mod:`repro.sim.batch`) steps one event loop
per run, so grinding a ``protocol x scenario x seed`` matrix is limited
to thousands of runs per second.  This module steps thousands of
*independent* constant-latency runs in lockstep instead: one numpy
array per automaton field — invocation times, response times, the
servers' common tag, the Figure 2 ``seen`` sets as per-run client
bitmasks — with per-round masked updates across the whole batch in
place of per-event dispatch.

Why this is exact
-----------------

Under a constant latency ``d``, with no crash plan and a single writer,
every client multicasts each request to all ``S`` servers at its
invocation instant ``T``; all copies arrive at ``T + d`` and all
replies at ``(T + d) + d``.  Consequently **every server processes the
identical request sequence in the same order**, so the server fields
collapse to one array per batch, and an operation's completion time is
a fixed number of message delays after its invocation: two per round
its :class:`~repro.registers.base.ProtocolSpec` declares, plus the
hop of its ``gossip`` fact.
A read's value is the servers' tag at ``T + d``, which is the number of
writes globally ordered before it; the global order is the stable sort
of invocation times with ties broken in client arm order, exactly the
event queue's FIFO tie-breaking.  Think times and start offsets are
replayed through the *same* ``random.Random`` substreams the scalar
workload driver uses, so every float in the timeline is bit-identical
by construction, not by approximation.

The scalar engine stays the bit-exactness **oracle**: every batch
samples ``k`` runs and replays them through
:class:`~repro.sim.batch.BatchRunner` plus a traced
:func:`~repro.workloads.runner.run_workload`, asserting identical
summaries, verdicts, round counts, per-operation times and returned
values.  A disagreement raises :class:`VectorMismatchError` — the
kernel never silently drifts from the engine it abstracts.

Runs the kernel cannot express — non-fixed-round protocols, stochastic
latency models, crash scenarios — fall back to the scalar engine with
an explicit reason (see :func:`supports` and :data:`FALLBACK_NOTICE`).

Memory: a chunk's timelines are two ``(runs x ops)`` float64 arrays,
written row by row and computed on directly; groups with the same hop
structure share them (:meth:`_GroupKernel._timelines`).  A sweep keeps
those arrays and its slotted :class:`RunSummary` records; its peak is
one chunk's kernel temporaries on top.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

try:  # numpy is a hard dependency of the kernel, not of the package
    import numpy as np
except ImportError:  # pragma: no cover - exercised via supports()
    np = None

from repro.analysis.metrics import (
    LatencySummary,
    merge_rounds_histograms,
    merge_summaries,
)
from repro.errors import ConfigurationError, ReproError
from repro.sim.batch import BatchResult, BatchRunner, RunSummary, SweepSpec
from repro.sim.latency import ConstantLatency
from repro.sim.rng import derive_seed, substream

#: The documented tail of every fallback diagnostic: tests and the CLI
#: grep for this exact phrase.
FALLBACK_NOTICE = "falling back to the scalar engine"

#: Runs per lockstep batch.  Bounds the (batch x ops) working arrays;
#: every batch gets its own sampled-oracle check.
DEFAULT_CHUNK = 4096

#: Scalar replays sampled per batch for the bit-exactness oracle.
DEFAULT_ORACLE_SAMPLES = 2

#: The ``seen`` bitmask field packs one bit per client into a uint64.
_MAX_MASK_CLIENTS = 63


class VectorMismatchError(ReproError):
    """The vector kernel and the scalar oracle disagreed on a sampled run."""


def supports(spec: SweepSpec) -> Optional[str]:
    """``None`` if the kernel can run ``spec``; else the fallback reason."""
    from repro.registers.registry import get_protocol
    from repro.workloads.scenarios import get_scenario

    if np is None:
        return "numpy is unavailable"
    proto = get_protocol(spec.protocol)
    if proto.vector is None:
        return f"protocol {spec.protocol!r} is not a fixed-round automaton"
    problem = proto.requirement(spec.config)
    if problem is not None:
        return f"protocol {spec.protocol!r} is infeasible here: {problem}"
    latency = spec.latency or ConstantLatency()
    if latency.constant_delay() is None:
        return f"latency model {type(latency).__name__} is not constant"
    scenario = get_scenario(spec.scenario)
    if scenario.crash_factory is not None:
        return f"scenario {spec.scenario!r} injects crashes"
    workload = scenario.workload
    S = spec.config.S
    if (
        workload.start_spread == 0
        and workload.think_time_mean == 0
        and _read_delay_hops(proto, S) != 2 * proto.write_rounds
    ):
        # With zero spread and zero think time every client re-invokes
        # on a rigid grid; reads and writes of different round lengths
        # then collide at the servers to the exact instant, and the
        # winner depends on event-queue sequence chains the lockstep
        # model does not carry.  The scalar engine owns those ties.
        return (
            f"scenario {spec.scenario!r} synchronises invocations and "
            f"protocol {spec.protocol!r} mixes read/write round lengths "
            "(tie-sensitive)"
        )
    if proto.vector.predicate_reads and spec.config.R > _MAX_MASK_CLIENTS:
        return f"R={spec.config.R} readers overflow the seen-bitmask field"
    plan = _client_plan(spec)
    if plan.total_events > spec.max_events:
        return (
            f"predicted {plan.total_events} events exceed the "
            f"max_events budget ({spec.max_events})"
        )
    return None


# ----------------------------------------------------------------------
# static per-group layout


def _read_delay_hops(proto, servers: int) -> int:
    """Message delays between a read's invocation and its response."""
    if proto.gossip:
        # A lone server's gossip pool completes on its own
        # contribution, so the extra hop disappears at S = 1.
        return 2 if servers == 1 else 3
    return 2 * proto.read_rounds


@dataclass(frozen=True)
class _Plan:
    """Static layout shared by every run of one (protocol, scenario,
    config) group: the flat, client-major operation axis."""

    clients: Tuple[Tuple[str, int, int], ...]  # (pid str, ops, delay hops)
    is_write: Tuple[bool, ...]  # per flat column
    proc_of: Tuple[str, ...]  # pid str per flat column
    client_bit: Tuple[int, ...]  # Figure 2 pid() bit per flat column
    write_cols: Tuple[int, ...]
    read_cols: Tuple[int, ...]
    n_readers: int
    reads_per_reader: int
    total_messages: int
    total_events: int
    min_witness_a: int  # smallest feasible `a` of the seen-predicate


def _client_plan(spec: SweepSpec) -> _Plan:
    from repro.registers.registry import get_protocol
    from repro.workloads.scenarios import get_scenario

    config = spec.config
    proto = get_protocol(spec.protocol)
    workload = get_scenario(spec.scenario).workload
    clients: List[Tuple[str, int, int]] = []
    is_write: List[bool] = []
    proc_of: List[str] = []
    client_bit: List[int] = []
    S = config.S
    if workload.writes_per_writer > 0:
        for pid in config.writer_ids:
            clients.append(
                (str(pid), workload.writes_per_writer, 2 * proto.write_rounds)
            )
            is_write.extend([True] * workload.writes_per_writer)
            proc_of.extend([str(pid)] * workload.writes_per_writer)
            client_bit.extend([1 << 0] * workload.writes_per_writer)
    n_readers = 0
    if workload.reads_per_reader > 0:
        for pid in config.reader_ids:
            n_readers += 1
            clients.append(
                (str(pid), workload.reads_per_reader, _read_delay_hops(proto, S))
            )
            is_write.extend([False] * workload.reads_per_reader)
            proc_of.extend([str(pid)] * workload.reads_per_reader)
            client_bit.extend([1 << pid.index] * workload.reads_per_reader)
    write_cols = tuple(i for i, w in enumerate(is_write) if w)
    read_cols = tuple(i for i, w in enumerate(is_write) if not w)
    # Requests and replies of every round, plus an all-to-all gossip round.
    read_messages = 2 * S * proto.read_rounds
    if proto.gossip:
        read_messages += S * (S - 1)
    messages = (
        len(write_cols) * 2 * S * proto.write_rounds + len(read_cols) * read_messages
    )
    # Each operation is one CALL event; each message one DELIVER event.
    events = len(is_write) + messages
    # Smallest `a` whose quorum condition holds (Figure 2's predicate is
    # monotone in `a` through the witness count, so only the minimum
    # feasible threshold matters for the batch).
    min_a = 0
    for a in range(1, config.R + 2):
        if config.quorum >= max(S - a * config.t - (a - 1) * config.b, 1):
            min_a = a
            break
    return _Plan(
        clients=tuple(clients),
        is_write=tuple(is_write),
        proc_of=tuple(proc_of),
        client_bit=tuple(client_bit),
        write_cols=write_cols,
        read_cols=read_cols,
        n_readers=n_readers,
        reads_per_reader=workload.reads_per_reader if n_readers else 0,
        total_messages=messages,
        total_events=events,
        min_witness_a=min_a,
    )


# ----------------------------------------------------------------------
# timeline replay (bit-exact per-client RNG chains)


def _timeline_rows(
    seed: int, plan: _Plan, d: float, workload
) -> Tuple[List[float], List[float]]:
    """One run's invocation/response instants, client-major.

    The kernel's only per-run Python computation: the think-time and
    start-offset chains consume the *same* ``random.Random`` substreams,
    in the same draw order, as the scalar
    :class:`~repro.workloads.generators.WorkloadDriver`, so every float
    matches the engine bit for bit.  Downstream everything is batched
    but packing the per-run :class:`RunSummary` records.
    """
    spread = workload.start_spread
    mean = workload.think_time_mean
    burst = workload.burst_size
    inv_row: List[float] = []
    resp_row: List[float] = []
    append_inv = inv_row.append
    append_resp = resp_row.append
    for pid_str, n_ops, hops in plan.clients:
        rng = substream(seed, "workload", pid_str)
        t = rng.uniform(0.0, spread) if spread else 0.0
        expovariate = rng.expovariate
        last = n_ops - 1
        for k in range(n_ops):
            append_inv(t)
            r = t
            for _ in range(hops):
                r = r + d
            append_resp(r)
            if k != last:
                if burst > 1 and (k + 1) % burst:
                    t = r
                elif mean > 0.0:
                    t = r + expovariate(1.0 / mean)
                else:
                    t = r
    return inv_row, resp_row


# ----------------------------------------------------------------------
# batch summaries


@dataclass(frozen=True)
class VectorBatchSummary:
    """Aggregate verdicts of one lockstep batch, plus its oracle tally."""

    protocol: str
    scenario: str
    runs: int
    ops: int
    read: LatencySummary
    write: LatencySummary
    rounds: Dict[str, Dict[int, int]]
    reads_fast: bool
    atomic_ok: Optional[bool]
    oracle_sampled: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "scenario": self.scenario,
            "runs": self.runs,
            "ops": self.ops,
            "read_mean": self.read.mean,
            "read_p99": self.read.p99,
            "write_mean": self.write.mean,
            "rounds": {
                kind: {str(r): n for r, n in sorted(hist.items())}
                for kind, hist in sorted(self.rounds.items())
            },
            "reads_fast": self.reads_fast,
            "atomic_ok": self.atomic_ok,
            "oracle_sampled": self.oracle_sampled,
        }


@dataclass
class VectorSweepResult:
    """A sweep executed by the vector kernel (with scalar fallback).

    ``batch`` holds per-run summaries for *all* specs, in spec order,
    bit-identical to what a pure :class:`BatchRunner` sweep would have
    produced — rendering and JSON output are shared, so ``--vector``
    never changes what lands on stdout.
    """

    batch: BatchResult
    batches: List[VectorBatchSummary] = field(default_factory=list)
    vectorized_runs: int = 0
    fallback_runs: int = 0
    fallback_reasons: Dict[str, int] = field(default_factory=dict)
    oracle_sampled: int = 0

    @property
    def rounds(self) -> Dict[str, Dict[int, int]]:
        """Round-count histogram over every vectorized run."""
        return merge_rounds_histograms([b.rounds for b in self.batches])


# ----------------------------------------------------------------------
# the kernel


class _GroupKernel:
    """Lockstep executor for one (protocol, scenario, config) group;
    ``timelines`` is the sweep's one cache (see :meth:`_timelines`)."""

    def __init__(self, template: SweepSpec, timelines: Dict[Tuple, Tuple]) -> None:
        from repro.registers.registry import get_protocol
        from repro.workloads.scenarios import get_scenario

        self.template = template
        self.proto = get_protocol(template.protocol)
        self.workload = get_scenario(template.scenario).workload
        self.latency = template.latency or ConstantLatency()
        self.d = self.latency.constant_delay()
        self.plan = _client_plan(template)
        self.config = template.config
        self._timeline_cache = timelines
        self._timeline_key = (
            self.d,
            self.plan.clients,
            self.workload.start_spread,
            self.workload.think_time_mean,
            self.workload.burst_size,
        )

    def _timelines(self, specs: Sequence[SweepSpec]) -> Tuple[Any, Any]:
        """The chunk's ``(runs x ops)`` invocation and response arrays,
        each run's :func:`_timeline_rows` assigned into its row.  They
        depend only on (seeds, delay, client layout, arrival knobs), so
        same-hop protocols (fast-crash, regular-fast, swsr-fast) get the
        *same*, read-only, arrays: keyed ``(chunk seeds, timeline key)``.
        """
        seeds = tuple(spec.seed for spec in specs)
        key = (seeds, self._timeline_key)
        arrays = self._timeline_cache.get(key)
        if arrays is None:
            shape = (len(seeds), len(self.plan.is_write))
            inv, resp = np.empty(shape), np.empty(shape)
            for i, seed in enumerate(seeds):
                inv[i], resp[i] = _timeline_rows(seed, self.plan, self.d, self.workload)
            inv.flags.writeable = resp.flags.writeable = False
            arrays = self._timeline_cache[key] = (inv, resp)
        return arrays

    # -- batched stepping ------------------------------------------------

    def run_chunk(self, specs: Sequence[SweepSpec]) -> "_ChunkResult":
        plan = self.plan
        n_ops = len(plan.is_write)
        inv, resp = self._timelines(specs)
        read_cols = np.asarray(plan.read_cols, dtype=np.intp)
        write_cols = np.asarray(plan.write_cols, dtype=np.intp)
        read_ts = self._read_values(inv)[:, read_cols]

        lat = resp - inv
        read_sum = _row_summaries(lat[:, read_cols])
        write_sum = _row_summaries(lat[:, write_cols])
        del lat  # released before the reductions allocate theirs

        # Batched verdicts as array reductions.
        if self.template.check:
            atomic = self._atomic_reduction(
                inv, resp, read_ts, read_cols, write_cols
            )
        else:
            atomic = None

        span = resp.max(axis=1) - inv.min(axis=1)
        thr = np.where(span > 0, n_ops / span, float(n_ops)).tolist()
        atomic_rows = [None] * len(specs) if atomic is None else atomic.tolist()

        summaries = [
            RunSummary(
                protocol=spec.protocol,
                scenario=spec.scenario,
                seed=spec.seed,
                ops_complete=n_ops,
                events=plan.total_events,
                messages=plan.total_messages,
                read=read_sum[i],
                write=write_sum[i],
                throughput=thr[i],
                atomic_ok=atomic_rows[i],
            )
            for i, spec in enumerate(specs)
        ]
        return _ChunkResult(
            kernel=self,
            specs=list(specs),
            summaries=summaries,
            inv=inv,
            resp=resp,
            read_ts=read_ts,
        )

    def _read_values(self, inv):
        """Every operation's returned tag, in the flat client-major layout.
        Its sort and scan temporaries die on return: one chunk's
        temporaries, not the retained results, set a sweep's peak RSS."""
        plan = self.plan
        # Global operation order: stable sort of invocation instants.
        # Rows are client-major in arm order, so ties resolve exactly
        # like the event queue's (time, seq) FIFO ordering.
        order = np.argsort(inv, axis=1, kind="stable")
        kinds_sorted = np.asarray(plan.is_write, dtype=bool)[order]

        # Field array 1: the servers' common tag — writes bump it, so
        # along the global order it is a masked cumulative count.
        ret_sorted = np.cumsum(kinds_sorted, axis=1, dtype=np.int64)

        # Field array 2 (Figure 2 layout): the servers' common ``seen``
        # set, one client bit per run, folded with per-round masked
        # updates — a write resets it to {writer}, any other request
        # joins its sender.
        if self.proto.vector.predicate_reads and plan.read_cols:
            bits = np.asarray(plan.client_bit, dtype=np.uint64)
            seen = np.zeros(inv.shape[0], dtype=np.uint64)
            writer_bit = np.uint64(1)
            pred_sorted = np.zeros(inv.shape, dtype=bool)
            min_a = plan.min_witness_a
            for j in range(inv.shape[1]):
                col_bits = bits[order[:, j]]
                write_here = kinds_sorted[:, j]
                seen = np.where(write_here, writer_bit, seen | col_bits)
                if min_a <= 1:
                    pred_sorted[:, j] = seen != 0
                elif min_a:
                    pred_sorted[:, j] = _popcount(seen) >= min_a
            # Failed predicate: answer with the tag's predecessor value.
            pred_sorted |= kinds_sorted
            np.subtract(ret_sorted, 1, out=ret_sorted, where=~pred_sorted)

        # Scatter the results back to the flat client-major layout.
        ret_flat = np.empty_like(ret_sorted)
        np.put_along_axis(ret_flat, order, ret_sorted, axis=1)
        return ret_flat

    def _atomic_reduction(self, inv, resp, read_ts, read_cols, write_cols):
        """Per-run SWMR atomicity as reductions over the field arrays.

        A read returning the ``k``-th write is consistent iff ``k`` is
        at least the number of writes that responded before it was
        invoked and at most the number invoked before it responded;
        per-reader monotonicity covers the read-read axis (the global
        order already extends real-time precedence between readers).
        """
        n_w, n_r = write_cols.size, read_cols.size
        runs = inv.shape[0]
        ok = np.ones(runs, dtype=bool)
        if n_r == 0 or n_w == 0:
            return ok
        w_inv = inv[:, write_cols]
        w_resp = resp[:, write_cols]
        r_inv = inv[:, read_cols]
        r_resp = resp[:, read_cols]
        lo = (w_resp[:, :, None] < r_inv[:, None, :]).sum(axis=1)
        hi = (w_inv[:, :, None] < r_resp[:, None, :]).sum(axis=1)
        ok &= ((read_ts >= lo) & (read_ts <= hi)).all(axis=1)
        if self.plan.n_readers and self.plan.reads_per_reader > 1:
            per_reader = read_ts.reshape(
                runs, self.plan.n_readers, self.plan.reads_per_reader
            )
            ok &= (np.diff(per_reader, axis=2) >= 0).all(axis=(1, 2))
        return ok

    # -- expected per-run facts used by the oracle ----------------------

    def expected_rounds(self) -> Dict[str, Dict[int, int]]:
        plan, proto = self.plan, self.proto
        out: Dict[str, Dict[int, int]] = {}
        if plan.read_cols:
            out["read"] = {proto.read_rounds: len(plan.read_cols)}
        if plan.write_cols:
            out["write"] = {proto.write_rounds: len(plan.write_cols)}
        return out

    def reads_fast(self) -> bool:
        if self.proto.gossip:
            return self.config.S == 1
        return self.proto.fast_reads


@dataclass
class _ChunkResult:
    """One lockstep batch: summaries plus the arrays the oracle reads."""

    kernel: _GroupKernel
    specs: List[SweepSpec]
    summaries: List[RunSummary]
    inv: Any
    resp: Any
    read_ts: Any

    def operations(self, index: int) -> List[Tuple[str, str, float, float, Any, Any]]:
        """Run ``index`` as ``(proc, kind, invoked, responded, value,
        result)`` rows in the flat client-major layout."""
        from repro.spec.histories import BOTTOM

        plan = self.kernel.plan
        rows = []
        write_idx = {col: i for i, col in enumerate(plan.write_cols)}
        read_idx = {col: i for i, col in enumerate(plan.read_cols)}
        for col, proc in enumerate(plan.proc_of):
            invoked = float(self.inv[index, col])
            responded = float(self.resp[index, col])
            if plan.is_write[col]:
                value = write_idx[col] + 1
                rows.append((proc, "write", invoked, responded, value, "ok"))
            else:
                ts = int(self.read_ts[index, read_idx[col]])
                result = BOTTOM if ts <= 0 else ts
                rows.append((proc, "read", invoked, responded, None, result))
        return rows


def _row_summaries(values) -> List[LatencySummary]:
    """Per-run :class:`LatencySummary` rows, replicating
    :func:`repro.analysis.metrics.summarize` float for float (sort,
    left-to-right sum, nearest-rank percentiles)."""
    runs, count = values.shape
    if count == 0:
        empty = LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return [empty] * runs
    ordered = np.sort(values, axis=1)
    # cumsum accumulates left to right, matching Python's sum() fold.
    means = np.cumsum(ordered, axis=1)[:, -1] / count
    ranks = {
        frac: max(0, math.ceil(frac * count) - 1) for frac in (0.50, 0.95, 0.99)
    }
    # Bulk .tolist() yields exact Python floats far faster than one
    # float() cast per element.
    cols = zip(
        means.tolist(),
        ordered[:, ranks[0.50]].tolist(),
        ordered[:, ranks[0.95]].tolist(),
        ordered[:, ranks[0.99]].tolist(),
        ordered[:, -1].tolist(),
    )
    return [
        LatencySummary(
            count=count, mean=mean, p50=p50, p95=p95, p99=p99, maximum=maxi
        )
        for mean, p50, p95, p99, maxi in cols
    ]


def _popcount(mask):
    counter = getattr(np, "bitwise_count", None)
    if counter is not None:
        return counter(mask).astype(np.int64)
    acc = np.zeros(mask.shape, dtype=np.int64)
    for b in range(_MAX_MASK_CLIENTS + 1):
        acc += ((mask >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
    return acc


# ----------------------------------------------------------------------
# the oracle


def _oracle_check(chunk: _ChunkResult, samples: int, chunk_index: int) -> int:
    """Replay ``samples`` runs of the batch through the scalar engine.

    Asserts bit-identical :class:`RunSummary` records (via
    :class:`BatchRunner`) and, through a traced replay, identical
    per-operation times, values, round counts and verdicts.  Returns
    the number of runs checked.
    """
    specs = chunk.specs
    if not specs or samples <= 0:
        return 0
    rng = random.Random(
        derive_seed(specs[0].seed, "vector-oracle", chunk_index, len(specs))
    )
    picks = sorted(rng.sample(range(len(specs)), min(samples, len(specs))))
    scalar = BatchRunner([specs[i] for i in picks], parallel=1).run()
    for i, expect in zip(picks, scalar.summaries):
        _agree(specs[i], "summary", chunk.summaries[i], expect)
        _deep_compare(chunk, i)
    return len(picks)


def _agree(spec: SweepSpec, what: str, vector_value: Any, scalar_value: Any) -> None:
    if vector_value != scalar_value:
        raise VectorMismatchError(
            f"{what} mismatch on {spec.label()}: "
            f"vector {vector_value} != scalar {scalar_value}"
        )


def _deep_compare(chunk: _ChunkResult, index: int) -> None:
    from repro.workloads.runner import run_scenario

    spec, kernel = chunk.specs[index], chunk.kernel
    result = run_scenario(
        spec.protocol,
        spec.config,
        scenario=spec.scenario,
        seed=spec.seed,
        latency=spec.latency,
        record_trace=True,
        max_events=spec.max_events,
    )
    # The history is in invocation order: regroup it client-major, the
    # kernel's flat layout (a process the plan lacks lands at the end).
    per_proc: Dict[str, List] = {proc: [] for proc in kernel.plan.proc_of}
    for op in result.history.complete_operations:
        proc = str(op.proc)
        per_proc.setdefault(proc, []).append(
            (proc, op.kind, op.invoked_at, op.responded_at, op.value, op.result)
        )
    scalar_rows = [row for rows in per_proc.values() for row in rows]
    vector_rows = chunk.operations(index)
    if vector_rows != scalar_rows:
        _agree(spec, "operation count", len(vector_rows), len(scalar_rows))
        _agree(spec, "operation", *next(
            pair for pair in zip(vector_rows, scalar_rows) if pair[0] != pair[1]
        ))
    _agree(spec, "round-count", kernel.expected_rounds(), result.rounds())
    if spec.check:
        _agree(
            spec, "atomicity verdict",
            chunk.summaries[index].atomic_ok, result.check_atomic().ok,
        )
        _agree(
            spec, "fastness verdict",
            kernel.reads_fast() or not kernel.plan.read_cols, result.check_fast().ok,
        )


# ----------------------------------------------------------------------
# driver


def run_vector_sweep(
    specs: Sequence[SweepSpec],
    parallel: int = 1,
    oracle_samples: int = DEFAULT_ORACLE_SAMPLES,
    chunk_size: int = DEFAULT_CHUNK,
) -> VectorSweepResult:
    """Run a sweep matrix through the vector kernel where possible.

    Specs the kernel supports execute in lockstep batches of
    ``chunk_size`` with ``oracle_samples`` scalar replays per batch;
    the rest run through :class:`BatchRunner` (honouring ``parallel``).
    Summaries come back in spec order, bit-identical to an all-scalar
    sweep, so downstream rendering cannot tell the engines apart.
    """
    if oracle_samples < 0:
        raise ConfigurationError(
            f"oracle_samples must be >= 0 (0 disables the oracle), got {oracle_samples}"
        )
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    start = time.perf_counter()
    specs = list(specs)
    summaries: List[Optional[RunSummary]] = [None] * len(specs)
    reasons: Dict[str, int] = {}
    grouped: Dict[Tuple, List[int]] = {}  # in first-seen order
    fallback: List[int] = []
    # The support verdict depends only on the group key (seed never
    # enters it), so a seed sweep pays for `supports` once per group
    # rather than once per run.
    verdicts: Dict[Tuple, Optional[str]] = {}
    for i, spec in enumerate(specs):
        config, latency = spec.config, spec.latency or ConstantLatency()
        key = (
            spec.protocol, spec.scenario, config.S, config.t, config.R, config.W,
            config.b, type(latency).__name__, latency.constant_delay(),
            spec.max_events, spec.check,
        )
        if key not in verdicts:
            verdicts[key] = supports(spec)
        reason = verdicts[key]
        if reason is None:
            grouped.setdefault(key, []).append(i)
        else:
            fallback.append(i)
            reasons[reason] = reasons.get(reason, 0) + 1

    batches: List[VectorBatchSummary] = []
    timelines: Dict[Tuple, Tuple] = {}
    for indices in grouped.values():
        kernel = _GroupKernel(specs[indices[0]], timelines)
        for at in range(0, len(indices), chunk_size):
            chunk_idx = indices[at : at + chunk_size]
            chunk = kernel.run_chunk([specs[i] for i in chunk_idx])
            sampled = _oracle_check(chunk, oracle_samples, len(batches))
            for i, summary in zip(chunk_idx, chunk.summaries):
                summaries[i] = summary
            checked = [
                s.atomic_ok for s in chunk.summaries if s.atomic_ok is not None
            ]
            batches.append(
                VectorBatchSummary(
                    protocol=kernel.template.protocol,
                    scenario=kernel.template.scenario,
                    runs=len(chunk_idx),
                    ops=sum(s.ops_complete for s in chunk.summaries),
                    read=merge_summaries([s.read for s in chunk.summaries]),
                    write=merge_summaries([s.write for s in chunk.summaries]),
                    rounds=_scaled_rounds(kernel.expected_rounds(), len(chunk_idx)),
                    reads_fast=kernel.reads_fast(),
                    atomic_ok=all(checked) if checked else None,
                    oracle_sampled=sampled,
                )
            )

    used = 1
    if fallback:
        scalar = BatchRunner([specs[i] for i in fallback], parallel=parallel).run()
        used = scalar.parallel
        for i, summary in zip(fallback, scalar.summaries):
            summaries[i] = summary
    batch = BatchResult(
        specs=specs,
        summaries=summaries,  # type: ignore[arg-type]
        elapsed=time.perf_counter() - start,
        parallel=used,
    )
    return VectorSweepResult(
        batch=batch,
        batches=batches,
        vectorized_runs=len(specs) - len(fallback),
        fallback_runs=len(fallback),
        fallback_reasons=reasons,
        oracle_sampled=sum(b.oracle_sampled for b in batches),
    )


def _scaled_rounds(
    per_run: Dict[str, Dict[int, int]], runs: int
) -> Dict[str, Dict[int, int]]:
    return {
        kind: {r: n * runs for r, n in hist.items()}
        for kind, hist in per_run.items()
    }
