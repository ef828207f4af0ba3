"""Batched load generator for the networked register service.

The generator multiplexes up to hundreds of thousands of *virtual
clients* — real reader/writer automata, one coroutine each — onto a
handful of OS processes.  Each worker process ("shard") runs one asyncio
event loop with one :class:`~repro.net.client.ClientPool` holding its
slice of the clients; shards fan out through the same deterministic
:func:`~repro.sim.batch.map_parallel` backbone the sweep runner uses.

Every shard ships back a compact operation log (tuples, not objects)
plus per-operation round counts.  The parent merges the logs into one
:class:`~repro.spec.histories.History` — timestamps are comparable
because every shard measures against one shared ``CLOCK_MONOTONIC``
origin — renumbers the operation ids, and judges the merged history with
the *same* validator the simulator uses.  The networked service is held
to the paper's correctness bar, not just a throughput number.

The round counts come from the runtime's client-phase accounting
(:class:`~repro.net.runtime.AsyncRuntime`), so the measured fast-read
fraction can be cross-checked against the simulator's trace-based round
histogram on a matching ``(protocol, S, t)`` configuration
(:func:`sim_rounds_check`).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.metrics import LatencyHistogram
from repro.errors import ConfigurationError
from repro.net.chaos import ChaosInjector, DegradationLedger, FaultPlan
from repro.net.client import ClientPool
from repro.net.codec import BINARY_SERIALIZER, require_binary
from repro.net.server import build_net_cluster
from repro.registers.base import ClusterConfig
from repro.registers.registry import get_protocol
from repro.sim.batch import map_parallel
from repro.sim.rng import derive_seed, substream
from repro.spec.histories import BOTTOM, History, Operation, parse_pid
from repro.spec.online import validate_history

#: Hard cap on in-flight *invocations* per shard; one pending operation
#: per client is the model's own cap, this bounds concurrent coroutines.
DEFAULT_OP_TIMEOUT = 30.0

#: Target client-start rate (clients/s) for the automatic ramp: spreads
#: a huge fleet's first operations instead of one thundering herd.
RAMP_RATE = 2000.0


@dataclass(frozen=True)
class LoadSpec:
    """One load-test recipe: cluster shape, client counts, stop rule.

    Args:
        protocol: registry name (must be supported by the net topology).
        addresses: ``[(host, port), ...]`` for servers ``s1..sS`` in
            order; ``S`` is inferred from its length.
        t: tolerated server failures (drives the automata's quorum).
        b: Byzantine budget (signature-bearing protocols only).
        readers: number of virtual reader clients.
        writers: number of writer clients (1 for SWMR protocols).
        ops_per_client: reads each reader performs (stop rule A).
        duration: wall-clock seconds to run (stop rule B).  With both
            set, whichever limit is reached first stops each client.
        write_interval: seconds between writes of each writer.
        shards: worker OS processes to fan the clients across.
        seed: root seed (client jitter, signature authority).
        serializer: body format; only ``"binary"`` exists, and any
            other name raises :class:`~repro.errors.ProtocolError`.
        timeout: per-operation response timeout in seconds.
        ramp: seconds over which client starts are jittered.  ``None``
            picks automatically: enough to keep the start storm near
            :data:`RAMP_RATE` clients/s, so a hundred-thousand-client
            run does not enqueue every first operation at once.
        chaos: optional :class:`~repro.net.chaos.FaultPlan` executed by
            a per-shard client-side injector (validated against the
            declared ``t`` budget unless the plan opts out).
        slow_threshold: ledger boundary between a *fast* and a *slow*
            completed operation, in seconds.
        retry_interval: in-flight frame retransmission cadence of each
            shard's pool (lossy links), in seconds; ``0`` disables.
        audit: collect the servers' signed accountability statements in
            every shard, merge them across shards and audit the merged
            transcript for equivocation (requires servers started with
            ``accountable=True``; without them the transcript is simply
            empty).  Results land in ``LoadReport.accountability``.
    """

    protocol: str
    addresses: Tuple[Tuple[str, int], ...]
    t: int = 0
    b: int = 0
    readers: int = 1
    writers: int = 1
    ops_per_client: Optional[int] = 10
    duration: Optional[float] = None
    write_interval: float = 0.25
    shards: int = 1
    seed: int = 0
    serializer: str = BINARY_SERIALIZER
    timeout: float = DEFAULT_OP_TIMEOUT
    ramp: Optional[float] = None
    chaos: Optional[FaultPlan] = None
    slow_threshold: float = 1.0
    retry_interval: float = 0.5
    audit: bool = False

    def __post_init__(self) -> None:
        require_binary(self.serializer)
        if not self.addresses:
            raise ConfigurationError("need at least one server address")
        if self.ops_per_client is None and self.duration is None:
            raise ConfigurationError(
                "need a stop rule: ops_per_client, duration, or both"
            )
        if self.readers < 1:
            raise ConfigurationError("need at least one virtual reader")
        if self.chaos is not None:
            # A plan may not silently exceed the declared fault model.
            self.chaos.validate(self.config)

    @property
    def config(self) -> ClusterConfig:
        return ClusterConfig(
            S=len(self.addresses),
            t=self.t,
            R=self.readers,
            W=self.writers,
            b=self.b,
        )

    @property
    def start_ramp(self) -> float:
        """Window over which client start times are spread."""
        if self.ramp is not None:
            return self.ramp
        auto = max(0.5, self.readers / RAMP_RATE)
        if self.duration is not None:
            auto = min(auto, self.duration / 2)
        return auto


@dataclass(frozen=True)
class ShardSpec:
    """One worker's slice of a :class:`LoadSpec` (must pickle)."""

    load: LoadSpec
    index: int
    origin: float


async def _drive_reader(
    pool: ClientPool, pid, spec: LoadSpec, deadline: Optional[float], rng
) -> List[int]:
    """One virtual client: a paced loop of read operations.

    Returns the op ids (shard-local) of the operations it completed.
    """
    done: List[int] = []
    # Jittered start so a shard's clients don't fire as one thundering
    # herd into freshly opened sockets.
    await asyncio.sleep(rng.uniform(0.0, spec.start_ramp))
    ops = 0
    while True:
        if spec.ops_per_client is not None and ops >= spec.ops_per_client:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        try:
            op = await pool.run_op(pid, "read", timeout=spec.timeout)
        except asyncio.TimeoutError:
            break  # leave the op incomplete; the merged history shows it
        done.append(op.op_id)
        ops += 1
    return done


async def _drive_writer(
    pool: ClientPool, pid, spec: LoadSpec, deadline: Optional[float], rng,
    stop: asyncio.Event,
) -> List[int]:
    """The writer: periodic writes of increasing values until told to stop.

    A lone writer writes ``1, 2, ...``; each of several writes its own
    ``"w2.1", "w2.2", ...``, so the multi-writer judge can tell every
    write apart.
    """
    done: List[int] = []
    step = 0
    writes_cap = spec.ops_per_client
    while not stop.is_set():
        if writes_cap is not None and step >= writes_cap:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        step += 1
        value = step if spec.writers == 1 else f"{pid}.{step}"
        try:
            op = await pool.run_op(pid, "write", value=value, timeout=spec.timeout)
        except asyncio.TimeoutError:
            break
        done.append(op.op_id)
        try:
            await asyncio.wait_for(stop.wait(), timeout=spec.write_interval)
        except asyncio.TimeoutError:
            pass
    return done


async def _shard_main(shard: ShardSpec) -> Dict[str, Any]:
    spec = shard.load
    config = spec.config
    cluster = build_net_cluster(
        spec.protocol, config, seed=spec.seed, enforce=False
    )
    server_addrs = dict(zip(config.server_ids, spec.addresses))
    injector = (
        ChaosInjector(spec.chaos, side="client", shard=shard.index)
        if spec.chaos is not None
        else None
    )
    pool = ClientPool(
        server_addrs,
        seed=derive_seed(spec.seed, "net-shard", shard.index) % 2**32,
        origin=shard.origin,
        chaos=injector,
        ledger=DegradationLedger(slow_threshold=spec.slow_threshold),
        retry_interval=spec.retry_interval,
        collect_statements=spec.audit,
        statement_seed=spec.seed,
    )
    readers = cluster.readers[shard.index :: spec.shards]
    writers = cluster.writers if shard.index == 0 else []
    pool.add_clients([*readers, *writers])
    await pool.connect()
    rng = substream(spec.seed, "net-jitter", shard.index)
    deadline = (
        time.monotonic() + spec.duration if spec.duration is not None else None
    )
    stop_writer = asyncio.Event()
    writer_tasks = [
        asyncio.ensure_future(
            _drive_writer(pool, w.pid, spec, deadline, rng, stop_writer)
        )
        for w in writers
    ]
    reader_tasks = [
        asyncio.ensure_future(_drive_reader(pool, r.pid, spec, deadline, rng))
        for r in readers
    ]
    await asyncio.gather(*reader_tasks)
    stop_writer.set()
    await asyncio.gather(*writer_tasks)
    await pool.close()

    runtime = pool.runtime
    ops = [
        (
            str(op.proc),
            op.kind,
            op.value,
            op.result,
            op.invoked_at,
            op.responded_at,
            runtime.rounds_of.get(op.op_id),
        )
        for op in runtime.history
    ]
    return {
        "shard": shard.index,
        "clients": len(readers) + len(writers),
        "ops": ops,
        "dropped": runtime.dropped_unroutable,
        "live_servers": pool.live_servers,
        "ledger": pool.ledger.to_dict(),
        "chaos": None if injector is None else injector.to_dict(),
        "transcript": (
            None if pool.transcript is None else pool.transcript.to_dict()
        ),
    }


def execute_shard(shard: ShardSpec) -> Dict[str, Any]:
    """Worker entry point: run one shard's event loop to completion."""
    return asyncio.run(_shard_main(shard))


@dataclass
class LoadReport:
    """Merged outcome of one networked load run."""

    spec: LoadSpec
    history: History
    rounds_of: Dict[int, int]
    read_hist: LatencyHistogram
    write_hist: LatencyHistogram
    clients: int
    duration: float
    dropped: int
    verdicts: Dict[str, Optional[bool]] = field(default_factory=dict)
    sim_check: Optional[Dict[str, Any]] = None
    #: Merged degradation ledger across shards (always present).
    degradation: Optional[Dict[str, Any]] = None
    #: Per-shard chaos injector records (counters, digests, stats).
    chaos_shards: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: Pre-window register value the judge treated as the legal initial
    #: value (``--connect`` against a long-lived cluster), if any.
    window_initial: Any = None
    #: Merged-transcript audit outcome when the run collected
    #: statements (``spec.audit``): statement/rejection counts plus one
    #: serialized fraud proof per provably-equivocating server.
    accountability: Optional[Dict[str, Any]] = None

    @property
    def ops_complete(self) -> int:
        return len(self.history.complete_operations)

    @property
    def ops_incomplete(self) -> int:
        return len(self.history.incomplete_operations)

    @property
    def throughput(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.ops_complete / self.duration

    @property
    def fast_read_fraction(self) -> float:
        """Fraction of completed reads that took exactly one phase."""
        reads = [
            op for op in self.history.complete_operations if op.is_read
        ]
        if not reads:
            return 0.0
        fast = sum(1 for op in reads if self.rounds_of.get(op.op_id) == 1)
        return fast / len(reads)

    def rounds_histogram(self) -> Dict[str, Dict[int, int]]:
        out: Dict[str, Dict[int, int]] = {"read": {}, "write": {}}
        for op in self.history.complete_operations:
            rounds = self.rounds_of.get(op.op_id)
            if rounds is None:
                continue
            bucket = out[op.kind]
            bucket[rounds] = bucket.get(rounds, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        """No verdict the protocol promises came back violated."""
        return all(v is not False for v in self.verdicts.values())

    def to_dict(self) -> Dict[str, Any]:
        spec = self.spec
        return {
            "format": "repro-load-report/v1",
            "protocol": spec.protocol,
            "config": {
                "S": len(spec.addresses),
                "t": spec.t,
                "b": spec.b,
                "readers": spec.readers,
                "writers": spec.writers,
            },
            "shards": spec.shards,
            "seed": spec.seed,
            "clients": self.clients,
            "duration_s": self.duration,
            "ops_complete": self.ops_complete,
            "ops_incomplete": self.ops_incomplete,
            "throughput_ops_s": self.throughput,
            "dropped_frames": self.dropped,
            "read_latency": self.read_hist.to_dict(),
            "write_latency": self.write_hist.to_dict(),
            "fast_read_fraction": self.fast_read_fraction,
            "rounds": {
                kind: {str(k): v for k, v in sorted(hist.items())}
                for kind, hist in self.rounds_histogram().items()
            },
            "verdicts": self.verdicts,
            "sim_check": self.sim_check,
            "degradation": self.degradation,
            "window_initial_value": self.window_initial,
            "accountability": self.accountability,
            "chaos": {
                str(index): {
                    "digest": record.get("digest"),
                    "stats": record.get("stats"),
                }
                for index, record in sorted(self.chaos_shards.items())
            }
            or None,
        }


def _window_initial(rows: List[Tuple]) -> Any:
    """The single pre-window value observed, if the run saw exactly one.

    Judging a load window against an *already-running* cluster means the
    register may hold a value no window writer wrote.  Reads returning
    it are not violations — it is the window's legal initial value.  If
    the completed reads return exactly one value that is neither ``⊥``
    nor any value written during the window, that value is it; with two
    or more such values something is genuinely wrong and the judge must
    see them untouched.
    """
    written = {row[2] for row in rows if row[1] == "write"}
    foreign = {
        row[3]
        for row in rows
        if row[1] == "read"
        and row[5] is not None
        and row[3] != BOTTOM
        and row[3] not in written
    }
    if len(foreign) == 1:
        return next(iter(foreign))
    return None


def merge_shard_results(
    spec: LoadSpec, results: List[Dict[str, Any]]
) -> LoadReport:
    """Fuse shard operation logs into one judged :class:`LoadReport`."""
    rows: List[Tuple] = []
    clients = 0
    dropped = 0
    ledgers: List[Dict[str, Any]] = []
    chaos_shards: Dict[int, Dict[str, Any]] = {}
    transcript = None
    for result in results:
        rows.extend(result["ops"])
        clients += result["clients"]
        dropped += result["dropped"]
        if result.get("ledger") is not None:
            ledgers.append(result["ledger"])
        if result.get("chaos") is not None:
            chaos_shards[result["shard"]] = result["chaos"]
        if result.get("transcript") is not None:
            from repro.accountability import TranscriptLog

            shard_log = TranscriptLog.from_dict(result["transcript"])
            if transcript is None:
                transcript = shard_log
            else:
                transcript.merge(shard_log)
    # One global invocation order; ties broken by process name so the
    # merge is deterministic for identical inputs.
    rows.sort(key=lambda row: (row[4], row[0]))
    # Window-relative judging: reads of the one pre-window value are
    # reads of the window's initial value (rendered as ⊥ for the judge).
    window_initial = _window_initial(rows)
    operations = []
    rounds_of: Dict[int, int] = {}
    read_hist, write_hist = LatencyHistogram(), LatencyHistogram()
    for op_id, row in enumerate(rows, start=1):
        proc, kind, value, result, invoked_at, responded_at, rounds = row
        if (
            window_initial is not None
            and kind == "read"
            and result == window_initial
        ):
            result = BOTTOM
        op = Operation(
            op_id=op_id,
            proc=parse_pid(proc),
            kind=kind,
            value=value,
            invoked_at=invoked_at,
        )
        op.result = result
        op.responded_at = responded_at
        operations.append(op)
        if rounds is not None:
            rounds_of[op_id] = rounds
        if responded_at is not None:
            latency = responded_at - invoked_at
            (read_hist if kind == "read" else write_hist).add(latency)
    history = History.from_operations(operations)
    complete = history.complete_operations
    if complete:
        duration = max(op.responded_at for op in complete) - min(
            op.invoked_at for op in complete
        )
    else:
        duration = 0.0
    report = LoadReport(
        spec=spec,
        history=history,
        rounds_of=rounds_of,
        read_hist=read_hist,
        write_hist=write_hist,
        clients=clients,
        duration=duration,
        dropped=dropped,
        degradation=DegradationLedger.merge(ledgers) if ledgers else None,
        chaos_shards=chaos_shards,
        window_initial=window_initial,
    )
    proto = get_protocol(spec.protocol)
    validator = validate_history(history, swmr=spec.writers <= 1)
    report.verdicts["regular"] = (
        validator.regular_verdict().ok if spec.writers <= 1 else None
    )
    # Only demand atomicity from protocols that promise it; regular-fast
    # deliberately is not atomic (Section 8).
    report.verdicts["atomic"] = (
        validator.atomic_verdict().ok if proto.atomic else None
    )
    if transcript is not None:
        from repro.accountability import audit_all

        proofs = audit_all(transcript)
        report.accountability = {
            "statements": len(transcript),
            "rejected": transcript.rejected,
            "accusations": [proof.to_dict() for proof in proofs],
            "accused": sorted(str(proof.accused) for proof in proofs),
        }
    return report


def run_load(spec: LoadSpec) -> LoadReport:
    """Run one load test: fan shards out, merge logs, judge the history."""
    origin = time.monotonic()
    shards = [
        ShardSpec(load=spec, index=index, origin=origin)
        for index in range(max(1, spec.shards))
        # A shard with no readers (more shards than clients) still runs:
        # shard 0 may carry only the writer.
    ]
    results, _ = map_parallel(execute_shard, shards, parallel=spec.shards)
    return merge_shard_results(spec, results)


# ----------------------------------------------------------------------
# sim cross-check


def sim_rounds_check(
    spec: LoadSpec, report: LoadReport, sim_readers: int = 8
) -> Dict[str, Any]:
    """Cross-check measured round counts against the simulator.

    Runs the same protocol at the same ``(S, t)`` through the simulated
    runtime (capping R — the sim needs minutes for 100k readers, and the
    round *structure* does not depend on R) and compares the support of
    the round-count histograms: every phase count observed over sockets
    must be a round count the simulator also produces, and vice versa
    for reads (the paper's claims are about reads).
    """
    from repro.workloads import ClosedLoopWorkload, run_workload

    config = spec.config
    sim_config = ClusterConfig(
        S=config.S,
        t=config.t,
        R=min(sim_readers, config.R),
        W=config.W,
        b=config.b,
    )
    result = run_workload(
        spec.protocol,
        sim_config,
        workload=ClosedLoopWorkload(reads_per_reader=6, writes_per_writer=3),
        seed=spec.seed,
        enforce=False,
    )
    sim_hist = result.validation.rounds_histogram()
    net_hist = report.rounds_histogram()
    sim_read = set(sim_hist.get("read", {}))
    net_read = set(net_hist.get("read", {}))
    agree = net_read == sim_read or (not net_read)
    return {
        "sim_config": {"S": sim_config.S, "t": sim_config.t, "R": sim_config.R},
        "sim_read_rounds": sorted(sim_read),
        "net_read_rounds": sorted(net_read),
        "expected_read_rounds": get_protocol(spec.protocol).read_rounds,
        "agree": agree,
    }
