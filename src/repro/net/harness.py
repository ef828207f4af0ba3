"""Deployment harnesses for the networked register service.

Two levels:

* :class:`ServerCluster` — spawn every server of a cluster as its own
  OS process (the deployment the CLI's ``repro load --spawn`` and the
  CI smoke job use).  Servers report their bound ports back over a
  pipe, so ephemeral ports work; killing a member mid-run is the
  crash-fault injection for the networked runtime.
* :func:`run_net_workload` — everything (servers *and* clients) on one
  in-process event loop.  This is the parity-suite workhorse: it runs a
  deterministic closed-loop workload through real sockets and returns a
  result shaped like the simulator's
  :class:`~repro.workloads.runner.RunResult`, so tests can assert the
  two runtimes reach the same verdicts on the same protocol.

Fault machinery on top (see :mod:`repro.net.chaos`): a spawned cluster
can :meth:`~ServerCluster.restart_server` a killed member — fresh-state,
same port: the crash model's adversary handing back a
recovered-but-amnesiac replica — and :class:`ChaosEventDriver` executes
a :class:`~repro.net.chaos.FaultPlan`'s timed kill/restart events
against a live cluster while a load run is in flight.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net.chaos import ChaosInjector, FaultPlan
from repro.net.client import ClientPool
from repro.net.runtime import AsyncRuntime
from repro.net.server import NetServer, build_net_cluster, start_servers
from repro.registers.base import ClusterConfig
from repro.sim.batch import default_mp_context
from repro.sim.rng import derive_seed
from repro.spec.histories import History, Verdict
from repro.spec.online import HistoryValidator, validate_history


def _server_entry(
    index: int, port: int, port_pipe, options: Dict[str, Any]
) -> None:  # pragma: no cover - exercised in child processes
    """Child-process entry point: run one server until terminated.

    ``options`` is everything :class:`NetServer` takes besides its
    index and port, as :meth:`ServerCluster.spawn` received it.
    """

    async def main() -> None:
        server = NetServer(index=index, port=port, **options)
        await server.start()
        port_pipe.send(server.port)
        port_pipe.close()
        await server.serve_forever()

    try:
        asyncio.run(main())
    except (KeyboardInterrupt, asyncio.CancelledError):
        pass


class ServerCluster:
    """All ``S`` servers of one deployment, each in its own OS process."""

    def __init__(
        self,
        processes: List[multiprocessing.Process],
        addresses: List[Tuple[str, int]],
        spawn_args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.processes = processes
        self.addresses = addresses
        # Everything needed to respawn a member on its original port
        # (restart_server); None for hand-built clusters.
        self._spawn_args = spawn_args

    @classmethod
    def spawn(
        cls,
        protocol: str,
        config: ClusterConfig,
        base_port: int = 0,
        start_timeout: float = 20.0,
        **options,
    ) -> "ServerCluster":
        """``options`` are :class:`NetServer`'s own (``host``, ``seed``,
        ``enforce``, ``accountable``)."""
        options.update(protocol=protocol, config=config)
        # Build one here so a bad protocol/config/option fails in the
        # parent with a real traceback, not S silent child deaths.
        host = NetServer(index=1, **options).host
        cluster = cls(
            [], [], spawn_args={"start_timeout": start_timeout, "server": options}
        )
        pipes = []
        try:
            for index in range(1, config.S + 1):
                port = 0 if base_port == 0 else base_port + index - 1
                proc, recv = cluster._start_member(index, port)
                cluster.processes.append(proc)
                pipes.append(recv)
            for index, recv in enumerate(pipes, start=1):
                cluster.addresses.append((host, cluster._bound_port(index, recv)))
        except BaseException:
            cluster.stop()
            raise
        finally:
            for recv in pipes:
                recv.close()
        return cluster

    def _start_member(self, index: int, port: int):
        """Start server ``s<index>`` on ``port`` (0: ephemeral).

        Returns the process and the pipe its bound port arrives on; the
        caller owns both from here on.
        """
        ctx = multiprocessing.get_context(default_mp_context())
        recv, send = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_server_entry,
            args=(index, port, send, self._spawn_args["server"]),
            daemon=True,
        )
        proc.start()
        send.close()
        return proc, recv

    def _bound_port(self, index: int, recv) -> int:
        """The port server ``s<index>`` reports having bound."""
        timeout = self._spawn_args["start_timeout"]
        if not recv.poll(timeout):
            raise SimulationError(
                f"server s{index} did not report a port within {timeout}s"
            )
        return recv.recv()

    def kill_server(self, index: int) -> None:
        """Hard-kill server ``s<index>`` (1-based): the crash fault."""
        proc = self.processes[index - 1]
        if proc.is_alive():
            proc.kill()
            proc.join(timeout=10.0)

    def restart_server(self, index: int) -> None:
        """Respawn server ``s<index>`` fresh-state on its original port.

        The crash model's recovery fault: the replica comes back
        *amnesiac* (register state reinitialised to ⊥/INITIAL) but at
        the same address, so clients' reconnect loops find it without
        any membership change.  Kills the old process first if it is
        somehow still alive.
        """
        if self._spawn_args is None:
            raise SimulationError(
                "this cluster was not created by ServerCluster.spawn; "
                "restart_server has no spawn recipe to reuse"
            )
        self.kill_server(index)
        port = self.addresses[index - 1][1]
        proc, recv = self._start_member(index, port)
        try:
            reported = self._bound_port(index, recv)
            if reported != port:  # pragma: no cover - port stolen meanwhile
                raise SimulationError(
                    f"restarted server s{index} bound port {reported}, "
                    f"expected {port}"
                )
        except BaseException:
            proc.terminate()
            proc.join(timeout=10.0)
            raise
        finally:
            recv.close()
        self.processes[index - 1] = proc

    def stop(self) -> None:
        for proc in self.processes:
            if proc.is_alive():
                proc.terminate()
        for proc in self.processes:
            proc.join(timeout=10.0)
            if proc.is_alive():  # pragma: no cover - stubborn child
                proc.kill()
                proc.join(timeout=10.0)

    @property
    def live_count(self) -> int:
        return sum(1 for proc in self.processes if proc.is_alive())

    def __enter__(self) -> "ServerCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


class ChaosEventDriver:
    """Execute a fault plan's timed kill/restart events on a cluster.

    Timer threads fire :meth:`ServerCluster.kill_server` /
    :meth:`~ServerCluster.restart_server` at each event's offset from
    :meth:`start` — wall-clock side effects on OS processes, deliberately
    outside the replayable decision streams (the *plan* is the replay
    artifact; ``executed`` records what actually happened and when).
    """

    def __init__(self, cluster: ServerCluster, plan: FaultPlan) -> None:
        self.cluster = cluster
        self.plan = plan
        self.executed: List[Dict[str, Any]] = []
        self._timers: List[threading.Timer] = []
        self._origin: Optional[float] = None
        self._lock = threading.Lock()

    def start(self) -> None:
        self._origin = time.monotonic()
        for event in self.plan.events:
            kill = threading.Timer(
                event.kill_at, self._run, args=("kill", event.server)
            )
            kill.daemon = True
            self._timers.append(kill)
            if event.restart_at is not None:
                restart = threading.Timer(
                    event.restart_at, self._run, args=("restart", event.server)
                )
                restart.daemon = True
                self._timers.append(restart)
        for timer in self._timers:
            timer.start()

    def _run(self, action: str, index: int) -> None:
        record: Dict[str, Any] = {"action": action, "server": index}
        try:
            with self._lock:
                if action == "kill":
                    self.cluster.kill_server(index)
                else:
                    self.cluster.restart_server(index)
            record["ok"] = True
        except Exception as exc:  # pragma: no cover - e.g. respawn race
            record["ok"] = False
            record["error"] = str(exc)
        record["at"] = (
            0.0 if self._origin is None else time.monotonic() - self._origin
        )
        self.executed.append(record)

    def stop(self) -> None:
        """Cancel pending timers and wait out any in-flight action."""
        for timer in self._timers:
            timer.cancel()
        with self._lock:
            pass

    def __enter__(self) -> "ChaosEventDriver":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


# ----------------------------------------------------------------------
# in-process workload runner (parity tests)


@dataclass
class NetRunResult:
    """Networked analogue of :class:`repro.workloads.runner.RunResult`."""

    protocol: str
    config: ClusterConfig
    history: History
    rounds_of: Dict[int, int]
    runtime: AsyncRuntime
    validator: Optional[HistoryValidator] = field(default=None, repr=False)
    ledger: Optional[Dict[str, Any]] = None
    chaos: Optional[ChaosInjector] = field(default=None, repr=False)
    #: Verified-statement transcript (``accountable=True`` runs only).
    transcript: Optional[Any] = None

    @property
    def validation(self) -> HistoryValidator:
        if self.validator is None:
            self.validator = validate_history(
                self.history, swmr=self.config.W == 1
            )
        return self.validator

    def check_atomic(self) -> Verdict:
        return self.validation.atomic_verdict()

    def check_regular(self) -> Verdict:
        return self.validation.regular_verdict()

    def read_rounds(self) -> Dict[int, int]:
        """Histogram of measured client phases over completed reads."""
        out: Dict[int, int] = {}
        for op in self.history.complete_operations:
            if op.is_read and op.op_id in self.rounds_of:
                rounds = self.rounds_of[op.op_id]
                out[rounds] = out.get(rounds, 0) + 1
        return out


async def _drive_clients(
    pool: ClientPool,
    cluster,
    reads_per_reader: int,
    writes_per_writer: int,
    op_timeout: float,
    pace: float,
) -> None:
    async def reader_loop(pid) -> None:
        for _ in range(reads_per_reader):
            await pool.run_op(pid, "read", timeout=op_timeout)
            await asyncio.sleep(pace)

    async def writer_loop(pid, lane: int) -> None:
        for step in range(1, writes_per_writer + 1):
            await pool.run_op(
                pid, "write", value=lane * 1000 + step, timeout=op_timeout
            )
            await asyncio.sleep(pace)

    tasks = [
        asyncio.ensure_future(reader_loop(reader.pid))
        for reader in cluster.readers
    ]
    tasks.extend(
        asyncio.ensure_future(writer_loop(writer.pid, lane))
        for lane, writer in enumerate(cluster.writers, start=1)
    )
    await asyncio.gather(*tasks)


def run_net_workload(
    protocol: str,
    config: ClusterConfig,
    reads_per_reader: int = 3,
    writes_per_writer: int = 2,
    seed: int = 0,
    enforce: bool = True,
    crash: Optional[Tuple[int, int]] = None,
    op_timeout: float = 15.0,
    pace: float = 0.001,
    chaos_plan: Optional[FaultPlan] = None,
    accountable: bool = False,
) -> NetRunResult:
    """Run one closed-loop workload entirely over localhost sockets.

    Servers, readers and writers all share the calling thread's event
    loop; the automata are the identical classes the simulator runs.
    ``crash=(i, n)`` stops server ``s<i>`` after the ``n``-th operation
    response — the crash-mid-connection scenario (clients must still
    terminate as long as ``S - t`` servers survive and ``i`` is within
    the failure budget).  ``chaos_plan`` injects wire-level faults at
    the pool, in both directions; its decisions are recorded in the
    returned result's ``chaos`` injector.  ``accountable`` turns on the
    accountability overlay end to end: servers sign their replies, the
    pool verifies and retains the statements, and the result's
    ``transcript`` is ready for :func:`repro.accountability.audit`.
    """

    async def run() -> NetRunResult:
        servers = await start_servers(
            protocol,
            config,
            seed=seed,
            enforce=enforce,
            accountable=accountable,
        )
        try:
            addrs = {
                pid: server.address
                for pid, server in zip(config.server_ids, servers)
            }
            injector = (
                ChaosInjector(chaos_plan, side="client", shard=0)
                if chaos_plan is not None
                else None
            )
            pool = ClientPool(
                addrs,
                seed=derive_seed(seed, "net-inproc") % 2**32,
                chaos=injector,
                collect_statements=accountable,
                statement_seed=seed,
            )
            cluster = build_net_cluster(protocol, config, seed=seed, enforce=enforce)
            pool.add_clients([*cluster.readers, *cluster.writers])
            await pool.connect()
            if crash is not None:
                crash_index, after_responses = crash
                loop = asyncio.get_running_loop()
                state = {"seen": 0, "fired": False}

                def maybe_crash(op) -> None:
                    state["seen"] += 1
                    if not state["fired"] and state["seen"] >= after_responses:
                        state["fired"] = True
                        # Closing the listener and every connection is the
                        # in-process stand-in for a server crash: clients'
                        # sends to it become drops, like the sim's model.
                        loop.create_task(servers[crash_index - 1].stop())

                pool.runtime.on_response(maybe_crash)
            await _drive_clients(
                pool, cluster, reads_per_reader, writes_per_writer,
                op_timeout, pace,
            )
            await pool.close()
            return NetRunResult(
                protocol=protocol,
                config=config,
                history=pool.runtime.history,
                rounds_of=dict(pool.runtime.rounds_of),
                runtime=pool.runtime,
                ledger=pool.ledger.to_dict(),
                chaos=injector,
                transcript=pool.transcript,
            )
        finally:
            for server in servers:
                await server.stop()

    return asyncio.run(run())
