"""The four socket workloads, on an in-process loopback cluster.

Servers (``repro.net.start_servers``), one ``ClientPool`` and the client
automata (``build_net_cluster``) share one event loop and talk over real
127.0.0.1 TCP — the topology ``run_net_workload`` uses.  The only
sockets are the ``S`` connections the quorum protocol needs and no
message delay is injected (except by ``net-chaos``), so latency is
processor time.  One process also lets a traced run see client and
server layers together.

Every rep starts a fresh cluster, so every rep does identical work and
hands an identical-size operation log to ``merge_shard_results``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.net import (
    ChaosInjector,
    ClientPool,
    FaultPlan,
    LinkFaults,
    LoadSpec,
    Partition,
    build_net_cluster,
    start_servers,
)
from repro.net import loadgen
from repro.registers.base import ClusterConfig
from repro.sim.rng import substream

from common import Workload, percentile, seed32, tail_percentile
from tracing import automaton_points, calls, layer_s, per, self_s

SERIALIZER = "binary"
#: a short merge is timed again, up to this often or this long in all
TEARDOWN_REPEATS, TEARDOWN_BUDGET_S = 5, 0.15
perf = time.perf_counter


class Loopback:
    """``S`` servers and one client pool on the running event loop."""

    def __init__(
        self,
        protocol: str,
        config: ClusterConfig,
        seed: int,
        accountable: bool = False,
        plan: Optional[FaultPlan] = None,
        retry_interval: float = 0.5,
    ) -> None:
        self.protocol, self.config, self.seed = protocol, config, seed
        self.accountable, self.plan = accountable, plan
        self.retry_interval = retry_interval
        self.servers: list = []
        self.pool: Optional[ClientPool] = None
        self.injector: Optional[ChaosInjector] = None
        self.cluster = None

    async def start(self) -> None:
        self.servers = await start_servers(
            self.protocol, self.config, seed=self.seed, serializer=SERIALIZER,
            enforce=False, accountable=self.accountable,
        )
        addrs = {
            pid: server.address
            for pid, server in zip(self.config.server_ids, self.servers)
        }
        if self.plan is not None:
            self.injector = ChaosInjector(self.plan, side="client", shard=0)
        self.pool = ClientPool(
            addrs,
            seed=seed32(self.seed, "pool"),
            serializer=SERIALIZER,
            chaos=self.injector,
            retry_interval=self.retry_interval,
            collect_statements=self.accountable,
            statement_seed=self.seed,
        )
        self.cluster = build_net_cluster(
            self.protocol, self.config, seed=self.seed, enforce=False
        )
        self.pool.add_clients([*self.cluster.readers, *self.cluster.writers])
        await self.pool.connect()

    async def stop(self) -> None:
        if self.pool is not None:
            await self.pool.close()
        for server in self.servers:
            await server.stop()

    def load_spec(self) -> LoadSpec:
        config = self.config
        return LoadSpec(
            protocol=self.protocol,
            addresses=tuple(server.address for server in self.servers),
            t=config.t, b=config.b, readers=config.R, writers=config.W,
            seed=self.seed, serializer=SERIALIZER, audit=self.accountable,
        )

    def shard_result(self) -> Dict[str, Any]:
        """The pool's operation log in ``merge_shard_results``' input shape."""
        runtime, pool = self.pool.runtime, self.pool
        return {
            "shard": 0,
            "clients": self.config.R + self.config.W,
            "ops": [
                (str(op.proc), op.kind, op.value, op.result, op.invoked_at,
                 op.responded_at, runtime.rounds_of.get(op.op_id))
                for op in runtime.history
            ],
            "dropped": runtime.dropped_unroutable,
            "live_servers": pool.live_servers,
            "ledger": pool.ledger.to_dict(),
            "chaos": None if self.injector is None else self.injector.to_dict(),
            "transcript": (
                None if pool.transcript is None else pool.transcript.to_dict()
            ),
        }


async def until(due: float) -> None:
    """Sleep to just before ``due``, then poll the loop up to it.

    The selector rounds a timer up to the next millisecond, as long as a
    read's whole service time here; polling keeps the generator's own
    lateness out of the latencies, which count from the due time.
    """
    wait = due - perf() - 0.002
    if wait > 0:
        await asyncio.sleep(wait)
    while perf() < due:
        await asyncio.sleep(0)


class _Tally:
    """What one op phase observed, from outside the pool."""

    def __init__(self) -> None:
        self.reads: List[float] = []
        self.writes: List[float] = []
        self.timeouts = 0
        self.attempted = 0

    async def op(self, pool, pid, kind, value, timeout, since=None):
        self.attempted += 1
        start = perf() if since is None else since
        try:
            await pool.run_op(pid, kind, value=value, timeout=timeout)
        except asyncio.TimeoutError:
            self.timeouts += 1
            return
        (self.reads if kind == "read" else self.writes).append(perf() - start)


class NetWorkload(Workload):
    """Shared rep skeleton: op phase on a fresh cluster, then teardown."""

    primary = "ops_per_s"
    protocol = ""
    S, t, R = 5, 1, 2
    accountable = False
    retry_interval = 0.5
    timeout = 30.0
    expected_fast_share = 1.0

    def setup(self) -> None:
        self.config = ClusterConfig(S=self.S, t=self.t, R=self.R)
        self.cluster_seed = seed32(self.seed, self.name, "cluster")

    def plan(self) -> Optional[FaultPlan]:
        return None

    async def drive(self, lb: Loopback, scale: float) -> Dict[str, Any]:
        """Run the op phase; returns the rep's e2e/info numbers."""
        raise NotImplementedError

    async def _run(self, scale: float) -> Dict[str, Any]:
        lb = Loopback(
            self.protocol, self.config, self.cluster_seed,
            accountable=self.accountable, plan=self.plan(),
            retry_interval=self.retry_interval,
        )
        try:
            await lb.start()
            begin = time.perf_counter_ns()
            out = await self.drive(lb, scale)
            out["windows"] = {"op": (begin, time.perf_counter_ns())}
        finally:
            await lb.stop()
        out["spec"], out["shard"] = lb.load_spec(), lb.shard_result()
        info = out["info"]
        info["frames_in"] = sum(s.frames_in for s in lb.servers)
        info["frames_bad"] = sum(s.frames_bad for s in lb.servers)
        info["retransmits"] = lb.pool.ledger.retransmits
        if lb.injector is not None:
            info["chaos"] = dict(lb.injector.stats)
        return out

    def _rep(self, scale: float) -> Dict[str, Any]:
        out = asyncio.run(self._run(scale))
        tally: _Tally = out.pop("tally")
        # The merge is a pure function of the op log.  A short one is
        # timed several times and the quickest is reported.
        spec, shard = out.pop("spec"), out.pop("shard")
        gc.collect()
        teardown, spent, repeats = float("inf"), 0.0, 0
        while repeats < TEARDOWN_REPEATS and spent < TEARDOWN_BUDGET_S:
            begin = time.perf_counter_ns()
            report = loadgen.merge_shard_results(spec, [shard])
            end = time.perf_counter_ns()
            teardown = min(teardown, (end - begin) / 1e9)
            spent += (end - begin) / 1e9
            repeats += 1
        out["windows"]["teardown"] = (begin, end)
        problems = [
            f"{name} verdict violated"
            for name, ok in report.verdicts.items() if ok is False
        ]
        fast = report.fast_read_fraction
        if fast != self.expected_fast_share:
            problems.append(f"fast_read_share {fast} != {self.expected_fast_share}")
        stmts = 0
        if self.accountable:
            audit = report.accountability
            stmts = audit["statements"]
            if audit["accused"] or audit["rejected"] or not stmts:
                problems.append(f"audit: {audit['accused']} accused, "
                                f"{audit['rejected']} rejected, {stmts} statements")
        failed = tally.timeouts + report.ops_incomplete + len(problems)
        out["e2e"]["teardown_s"] = teardown
        out["info"].update(
            fast_read_share=fast, statements=stmts,
            ops=len(tally.reads) + len(tally.writes),
            reads=len(tally.reads), writes=len(tally.writes),
        )
        out.update(attempted=tally.attempted, failed=min(failed, tally.attempted),
                   problems=problems)
        return out

    def warmup(self) -> None:
        self._rep(self.scale / 8)

    def rep(self) -> Dict[str, Any]:
        return self._rep(self.scale)

    def inputs_digest(self) -> str:
        plan = self.plan()
        text = json.dumps([
            self.cluster_seed, self.generated_inputs(),
            None if plan is None else plan.to_dict(),
        ], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def generated_inputs(self) -> Any:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # tracing

    def trace_points(self) -> List[tuple]:
        import asyncio.events
        import selectors

        from repro import accountability
        from repro.accountability import statements
        from repro.crypto.signatures import SignatureAuthority
        from repro.net import chaos, client, codec, loadgen, runtime, server
        from repro.spec.online import HistoryValidator

        op_of = lambda self, src, dst, payload, *rest: getattr(payload, "op_id", None)
        cluster = build_net_cluster(
            self.protocol, self.config, seed=self.cluster_seed, enforce=False
        )
        points = automaton_points(
            cluster.all_processes(), "registers:client_step", "registers:server_step"
        )
        points += [
            (codec.Codec, "encode_frame", "net.codec:encode", {
                "tag": op_of,
                "count": ("bytes", lambda frame, *a: len(frame))}),
            (codec.Codec, "decode_body_full", "net.codec:decode"),
            (codec.FrameBuffer, "feed", "net.codec:feed", {
                "count": ("frames_fed", lambda bodies, *a: len(bodies))}),
            (client.PoolConnection, "data_received", "net.client:data_received"),
            (client.PoolConnection, "flush", "net.client:flush", {
                "before": ("flushes", lambda conn: 1 if conn._batch else 0)}),
            (client.ClientPool, "handle_frame", "net.client:handle_frame"),
            (client.ClientPool, "flush_batch", "net.client:flush_batch"),
            (server.ServerConnection, "data_received", "net.server:data_received"),
            (server.ServerConnection, "flush", "net.server:flush"),
            (server.NetServer, "handle_frame", "net.server:handle_frame"),
            (server.NetServer, "flush_batch", "net.server:flush_batch"),
            (server.NetServer, "_route_out", "net.server:route_out", {"tag": op_of}),
            (runtime.AsyncRuntime, "invoke", "net.runtime:invoke"),
            (runtime.AsyncRuntime, "deliver", "net.runtime:deliver", {"tag": op_of}),
            (runtime.AsyncRuntime, "emit", "net.runtime:emit", {"tag": op_of}),
            (runtime.AsyncRuntime, "record_response", "net.runtime:record_response"),
            (chaos.ChaosInjector, "apply", "net.chaos:apply"),
            (loadgen, "merge_shard_results", "net.loadgen:merge"),
            (loadgen, "validate_history", "spec:validate"),
            (HistoryValidator, "atomic_verdict", "spec:atomic_verdict"),
            (HistoryValidator, "regular_verdict", "spec:regular_verdict"),
            (accountability, "sign_statement", "accountability:sign"),
            (accountability, "audit_all", "accountability:audit"),
            (statements, "verify_statement", "accountability:verify"),
            (statements.SignedStatement, "to_wire", "accountability:to_wire"),
            (statements.SignedStatement, "from_wire", "accountability:from_wire"),
            (statements.TranscriptLog, "record", "accountability:record"),
            (statements.TranscriptLog, "from_dict", "accountability:load"),
            (statements.TranscriptLog, "to_dict", "accountability:dump"),
            (SignatureAuthority, "sign", "crypto:sign"),
            (SignatureAuthority, "verify", "crypto:verify"),
            # The event loop itself, so that the residual is measured and
            # not merely inferred: every callback the loop runs, and its
            # wait in the selector.
            (asyncio.events.Handle, "_run", "net.loop:callback"),
            (selectors.EpollSelector, "select", "net.loop:select"),
        ]
        return points

    def layers(self, aggs, counts, rep) -> Dict[str, float]:
        info, wall = rep["info"], rep["wall_s"]
        agg, down = aggs["op"], aggs["teardown"]
        ops = info["ops"]
        us = 1e6
        encodes = calls(agg, "net.codec:encode")
        decodes = calls(agg, "net.codec:decode")
        fed = counts.get("frames_fed", 0)
        flushes = counts.get("flushes", 0)
        # frames the clients sent = frames the servers took in
        client_sends = info["frames_in"] + info["frames_bad"]
        stmts = calls(agg, "accountability:sign")
        chaos_frames = calls(agg, "net.chaos:apply")
        named = sum(row["self_s"] for row in agg.values()) - layer_s(agg, "net.loop")
        chaos_stats = info.get("chaos", {})
        judge = self_s(down, "spec:validate", "spec:atomic_verdict", "spec:regular_verdict")
        return {
            "registers.client_step_us_per_op":
                per(self_s(agg, "registers:client_step"), ops, us),
            "registers.server_step_us_per_op":
                per(self_s(agg, "registers:server_step"), ops, us),
            "net.codec.encode_us_per_frame":
                per(self_s(agg, "net.codec:encode"), encodes, us),
            "net.codec.decode_us_per_frame":
                per(self_s(agg, "net.codec:decode"), decodes, us),
            "net.codec.feed_us_per_frame": per(self_s(agg, "net.codec:feed"), fed, us),
            "net.codec.frames_per_op": per(encodes, ops),
            "net.codec.bytes_per_op": per(counts.get("bytes", 0), ops),
            "net.client.self_us_per_op": per(layer_s(agg, "net.client"), ops, us),
            "net.client.frames_per_flush": per(client_sends, flushes),
            "net.client.retransmits_per_kop": per(info["retransmits"], ops, 1e3),
            "net.server.self_us_per_op": per(layer_s(agg, "net.server"), ops, us),
            "net.server.frames_in_per_op": per(info["frames_in"], ops),
            "net.server.frames_bad": info["frames_bad"],
            "net.runtime.self_us_per_op": per(layer_s(agg, "net.runtime"), ops, us),
            "net.chaos.apply_us_per_frame":
                per(self_s(agg, "net.chaos:apply"), chaos_frames, us),
            "net.chaos.dropped_share": per(
                chaos_stats.get("dropped", 0) + chaos_stats.get("partition_dropped", 0),
                chaos_stats.get("frames", 0)),
            "net.chaos.delayed_share":
                per(chaos_stats.get("delayed", 0), chaos_stats.get("frames", 0)),
            "net.loop.other_us_per_op": per(wall - named, ops, us),
            "accountability.sign_us_per_stmt":
                per(self_s(agg, "accountability:sign"), stmts, us),
            "accountability.verify_us_per_stmt": per(
                self_s(agg, "accountability:verify", "accountability:record"), stmts, us),
            "accountability.wire_us_per_stmt": per(
                self_s(agg, "accountability:to_wire", "accountability:from_wire"),
                stmts, us),
            "accountability.audit_us_per_stmt": per(
                self_s(down, "accountability:audit", "accountability:load"),
                info["statements"], us),
            "accountability.stmts_per_op": per(info["statements"], ops),
            "crypto.sign_us_per_call":
                per(self_s(agg, "crypto:sign"), calls(agg, "crypto:sign"), us),
            "crypto.verify_us_per_call":
                per(self_s(agg, "crypto:verify"), calls(agg, "crypto:verify"), us),
            "net.loadgen.merge_us_per_op": per(self_s(down, "net.loadgen:merge"), ops, us),
            "spec.judge_us_per_op": per(judge, ops, us),
        }

    def secondary(self, rep) -> Dict[str, float]:
        """Latency numbers beside the end-to-end ones (untraced reps)."""
        info = rep["info"]
        return {
            "net.client.read_p99_ms": info["read_tail_ms"],
            "net.client.write_p50_ms": info["write_p50_ms"],
            "fast_read_share": info["fast_read_share"],
        }


def _latency_info(tally: _Tally) -> Dict[str, float]:
    return {
        "read_samples": len(tally.reads),
        "read_tail_ms": tail_percentile(tally.reads) * 1e3 if tally.reads else 0.0,
        "write_p50_ms": percentile(tally.writes, 0.5) * 1e3 if tally.writes else 0.0,
    }


class ClosedLoop(NetWorkload):
    """``callers`` closed-loop callers share one rep's reads; one writer.

    Each caller takes the next read as soon as its last one returned,
    until the rep's reads are used up, so the op phase ends when the
    work does and not when the unluckiest caller does.

    ``callers`` is 1 or ``R``.  A reader automaton has one operation at
    a time, so with ``R`` callers each keeps to its own reader; a single
    caller walks all ``R`` readers in a seeded order.  The workloads that
    measure processor time use the single caller: two readers looping on
    their own share one event loop with the servers, and their phase
    decides how many frames a wake-up of the loop carries — in step they
    coalesce (probe: 3.5 k ops/s), out of step they do not (3.0 k), and
    which a rep lands in follows from its first milliseconds.  One read
    at a time has no phase: every op is 10 frames, each its own write.
    """

    reads = 0  # per rep, over all callers
    callers = 1
    write_every = 0.05

    def reader_order(self, reads: int) -> List[int]:
        """Every reader equally often, in a seeded order."""
        rng = substream(self.seed, "ledger", self.name, "reader-order")
        order = [index % self.R for index in range(reads)]
        rng.shuffle(order)
        return order

    def write_gaps(self) -> List[float]:
        """The writer's think times (cycled), +-20 % around ``write_every``."""
        rng = substream(self.seed, "ledger", self.name, "write-gaps")
        return [self.write_every * rng.uniform(0.8, 1.2) for _ in range(64)]

    def generated_inputs(self) -> Any:
        return [self.reader_order(64), self.write_gaps()]

    async def drive(self, lb: Loopback, scale: float) -> Dict[str, Any]:
        pool, tally = lb.pool, _Tally()
        reads = max(1, int(round(self.reads * scale)))
        order, gaps = self.reader_order(reads), self.write_gaps()
        pids = [reader.pid for reader in lb.cluster.readers]
        taken = iter(range(reads))
        done = asyncio.Event()

        async def caller(index: int) -> None:
            for read in taken:
                pid = pids[order[read] if self.callers == 1 else index]
                await tally.op(pool, pid, "read", None, self.timeout)

        async def writer(pid) -> None:
            value = 0
            while not done.is_set():
                value += 1
                await tally.op(pool, pid, "write", value, self.timeout)
                if self.write_every:
                    try:
                        await asyncio.wait_for(done.wait(), gaps[value % len(gaps)])
                    except asyncio.TimeoutError:
                        pass

        start = perf()
        write_task = asyncio.ensure_future(writer(lb.cluster.writers[0].pid))
        await asyncio.gather(*(caller(index) for index in range(self.callers)))
        done.set()
        await write_task
        wall = perf() - start
        ops = len(tally.reads) + len(tally.writes)
        info = _latency_info(tally)
        return {
            "wall_s": wall,
            "e2e": {
                "ops_per_s": ops / wall,
                "read_p50_ms": percentile(tally.reads, 0.5) * 1e3,
            },
            "counts": {"reads_attempted": reads},
            "info": info,
            "tally": tally,
        }


class FastRead(ClosedLoop):
    name = "net-fast-read"
    protocol = "fast-crash"
    R = 2  # the largest R with R < S/t - 2 at S=5, t=1
    reads = 2000


class AuditMixed(ClosedLoop):
    name = "net-audit-mixed"
    protocol = "fast-crash"
    R = 2
    reads = 300
    write_every = 0.0
    accountable = True


class Chaos(ClosedLoop):
    name = "net-chaos"
    protocol = "abd"
    R = 16
    reads = 1600
    retry_interval = 0.1
    timeout = 5.0
    callers = 16
    expected_fast_share = 0.0  # an abd read is two rounds

    def plan(self) -> FaultPlan:
        return FaultPlan(
            seed=seed32(self.seed, self.name, "fault-plan"),
            default=LinkFaults(
                drop=0.02, delay=0.2, delay_min=0.001, delay_max=0.010,
                duplicate=0.02, reorder=0.02,
            ),
            partitions=(Partition(server=2, start=0.5, end=1.5),),
            label="ledger-net-chaos",
        )


class FanoutOpen(NetWorkload):
    """Open loop: reads fall due on a fixed schedule at two fixed rates.

    64 virtual readers form a free pool.  A read that falls due while
    every reader is busy waits in a backlog and is served, oldest first,
    by the next reader to finish; its latency still counts from the
    moment it was due.  The rates are constants — about 0.3x and 0.6x of
    the closed-loop capacity of 64 readers on the sizing box (6.6 k
    ops/s) — and never calibrated at run time, so two commits see the
    same offered load.
    """

    name = "net-fanout-open"
    protocol = "regular-fast"
    R = 64
    RATES = (("lo", 2000.0), ("hi", 4000.0))
    WRITE_SHARE = 0.10
    phase_s = 0.5

    def schedule(self, rate: float, seconds: float, label: str) -> List[float]:
        """Due times: one per ``1/rate`` slot, at a seeded place in it."""
        rng = substream(self.seed, "ledger", self.name, "due", label)
        gap = 1.0 / rate
        return [(i + rng.random()) * gap for i in range(int(rate * seconds))]

    def generated_inputs(self) -> Any:
        return [self.schedule(rate, 0.01, label) for label, rate in self.RATES]

    async def _phase(self, lb: Loopback, label: str, rate: float,
                     seconds: float, first_value: int) -> Dict[str, Any]:
        pool, tally = lb.pool, _Tally()
        loop = asyncio.get_running_loop()
        free = deque(reader.pid for reader in lb.cluster.readers)
        backlog: deque = deque()
        late: List[float] = []
        tasks: List[asyncio.Task] = []
        state = {"backlog_max": 0, "last_done": 0.0}
        origin = perf() + 0.005

        async def serve(pid, due: float) -> None:
            while True:
                await tally.op(pool, pid, "read", None, self.timeout, since=due)
                if not backlog:
                    break
                due = backlog.popleft()
            free.append(pid)
            state["last_done"] = perf()

        async def reads() -> None:
            for offset in self.schedule(rate, seconds, label):
                due = origin + offset
                await until(due)
                if free:
                    late.append(perf() - due)
                    tasks.append(loop.create_task(serve(free.popleft(), due)))
                else:
                    backlog.append(due)
                    state["backlog_max"] = max(state["backlog_max"], len(backlog))

        async def writes() -> None:
            pid = lb.cluster.writers[0].pid
            value = first_value
            for offset in self.schedule(rate * self.WRITE_SHARE, seconds, label + "-w"):
                due = origin + offset
                await until(due)
                value += 1
                await tally.op(pool, pid, "write", value, self.timeout, since=due)
            state["last_done"] = max(state["last_done"], perf())

        await asyncio.gather(reads(), writes())
        while tasks:
            batch, tasks[:] = list(tasks), []
            await asyncio.gather(*batch)
        ops = len(tally.reads) + len(tally.writes)
        return {
            "tally": tally,
            "delivered_per_s": ops / (state["last_done"] - origin),
            "read_p50_ms": percentile(tally.reads, 0.5) * 1e3,
            "read_tail_ms": tail_percentile(tally.reads) * 1e3,
            "backlog_max": state["backlog_max"],
            "gen_late_tail_ms": tail_percentile(late) * 1e3 if late else 0.0,
            "writes": len(tally.writes),
        }

    async def drive(self, lb: Loopback, scale: float) -> Dict[str, Any]:
        seconds = max(0.1, self.phase_s * scale)
        start = perf()
        lo = await self._phase(lb, "lo", self.RATES[0][1], seconds, 0)
        hi = await self._phase(lb, "hi", self.RATES[1][1], seconds, lo["writes"])
        wall = perf() - start
        tally = _Tally()
        for phase in (lo, hi):
            part = phase.pop("tally")
            tally.reads += part.reads
            tally.writes += part.writes
            tally.timeouts += part.timeouts
            tally.attempted += part.attempted
        info = _latency_info(tally)
        info.update(
            read_tail_ms=lo["read_tail_ms"],
            hi_read_p50_ms=hi["read_p50_ms"], hi_read_tail_ms=hi["read_tail_ms"],
            hi_backlog_max=hi["backlog_max"], lo_backlog_max=lo["backlog_max"],
            gen_late_tail_ms=max(lo["gen_late_tail_ms"], hi["gen_late_tail_ms"]),
        )
        return {
            "wall_s": wall,
            "e2e": {
                "ops_per_s": hi["delivered_per_s"],
                "read_p50_ms": lo["read_p50_ms"],
            },
            "counts": {"ops_due": tally.attempted},
            "info": info,
            "tally": tally,
        }

    def secondary(self, rep) -> Dict[str, float]:
        info = rep["info"]
        out = super().secondary(rep)
        out.update({
            "net.client.hi_read_p50_ms": info["hi_read_p50_ms"],
            "net.client.hi_read_p99_ms": info["hi_read_tail_ms"],
            "net.client.hi_backlog_max": info["hi_backlog_max"],
            "net.client.gen_late_p99_ms": info["gen_late_tail_ms"],
        })
        return out
