"""Resilience tests: reconnect, retransmission, timeouts, kill→restart.

The headline invariant under test (ISSUE 7): under any fault plan whose
effective concurrent server failures stay ≤ t, all verdicts hold and no
operation hangs; past t the service degrades gracefully — every
operation completes or times out cleanly and the degradation ledger
reports it.  Plus the `run_op` waiter-leak regression (a timed-out pid
must be immediately reusable) and window-relative judging for
``--connect`` runs against long-lived clusters.
"""

import asyncio
import multiprocessing
import time

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.net.chaos import (
    FaultPlan,
    LinkFaults,
    ServerEvent,
    build_run_record,
    verify_run_record,
)
from repro.net import harness
from repro.net.client import ClientPool, PoolConnection
from repro.net.codec import PREAMBLE, Codec, FrameBuffer
from repro.net.harness import (
    ChaosEventDriver,
    ServerCluster,
    run_net_workload,
)
from repro.net.loadgen import LoadSpec, merge_shard_results, run_load
from repro.net.server import NetServer, build_net_cluster, start_servers
from repro.registers.base import ClusterConfig
from repro.registers.messages import FastRead, FastReadAck, FastWrite
from repro.registers.timestamps import INITIAL_TAG
from repro.sim.batch import default_mp_context
from repro.sim.ids import reader, server, writer
from repro.spec.histories import BOTTOM, History, parse_pid


def _silent_member(*args):
    """Stand-in for ``harness._server_entry``: never writes to its pipe."""
    time.sleep(60)


class _Transport:
    """Records what a link writes; nothing ever answers."""

    def __init__(self):
        self.frames = []
        self.closed = False

    def write(self, data):
        self.frames.append(data)

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True


def _link(pool, pid):
    conn = PoolConnection(pool, pid)
    conn.connection_made(_Transport())
    return conn


def _socketless_pool(**options):
    """An abd pool over three recording links (t=0: an op needs all
    three servers, and none answers); returns it and a reader pid."""
    config = ClusterConfig(S=3, t=0, R=1)
    pool = ClientPool(
        {pid: ("127.0.0.1", 0) for pid in config.server_ids},
        reconnect=False,
        **options,
    )
    cluster = build_net_cluster("abd", config, enforce=False)
    pool.add_clients([*cluster.readers, *cluster.writers])
    for pid in config.server_ids:
        pool._install(pid, _link(pool, pid))
    return pool, cluster.readers[0].pid


def _spy_retransmits(pool):
    """Loop times of every retransmit the pool's op timers fire."""
    fired, original = [], pool._retransmit
    loop = asyncio.get_running_loop()

    def spy(op_id):
        fired.append(loop.time())
        original(op_id)

    pool._retransmit = spy
    return fired


class TestHistoryAbandon:
    def test_abandon_keeps_op_incomplete_and_frees_proc(self):
        history = History()
        pid = parse_pid("r1")
        op = history.invoke(pid, "read", at=0.0)
        assert history.abandon(pid) is op
        assert history.pending_of(pid) is None
        assert op in history.incomplete_operations
        # The process is free to invoke again immediately.
        history.invoke(pid, "read", at=1.0)

    def test_abandon_without_pending_is_a_noop(self):
        assert History().abandon(parse_pid("r9")) is None


class TestRunOpTimeout:
    """Regression: the `run_op` waiter leak (`ISSUE 7`, satellite 1).

    Before the fix, a timed-out operation left its entry in
    ``ClientPool._waiters`` forever, so every later op on that pid
    raised "already has an operation in flight".
    """

    def test_timed_out_pid_is_reusable_and_recovers(self):
        config = ClusterConfig(S=3, t=0, R=1)

        async def main():
            servers = await start_servers("abd", config, seed=5, enforce=False)
            addrs = {
                pid: server.address
                for pid, server in zip(config.server_ids, servers)
            }
            port = servers[1].port
            pool = ClientPool(addrs, seed=1, retry_interval=0.2)
            cluster = build_net_cluster("abd", config, seed=5, enforce=False)
            pool.add_clients([*cluster.readers, *cluster.writers])
            await pool.connect()
            pid = cluster.readers[0].pid
            first = await pool.run_op(pid, "read", timeout=5.0)
            assert first.result == BOTTOM

            # With t=0 the quorum is all three servers: stopping one
            # makes every op stall past its deadline.
            await servers[1].stop()
            with pytest.raises(asyncio.TimeoutError):
                await pool.run_op(pid, "read", timeout=0.4)
            # The pid is immediately reusable — this used to raise
            # SimulationError("already has an operation in flight").
            with pytest.raises(asyncio.TimeoutError):
                await pool.run_op(pid, "read", timeout=0.4)

            # Bring a fresh server up on the same port; the pool's
            # backoff loop reconnects and the pid completes again.
            replacement = NetServer(
                "abd", config, 2, port=port, seed=5, enforce=False
            )
            await replacement.start()
            deadline = time.monotonic() + 8.0
            while pool.live_servers < 3:
                if time.monotonic() > deadline:
                    raise AssertionError("pool never reconnected")
                await asyncio.sleep(0.05)
            op = await pool.run_op(pid, "read", timeout=10.0)
            assert op.responded_at is not None
            assert pool.ledger.reconnects >= 1
            assert pool.ledger.timed_out == 2
            history = pool.runtime.history
            assert len(history.incomplete_operations) == 2
            assert len(history.complete_operations) == 2

            await pool.close()
            await replacement.stop()
            for server in servers:
                await server.stop()

        asyncio.run(main())

    def test_cancelled_op_frees_pid_without_timeout_count(self):
        config = ClusterConfig(S=2, t=0, R=1)

        async def main():
            servers = await start_servers("abd", config, seed=3, enforce=False)
            addrs = {
                pid: server.address
                for pid, server in zip(config.server_ids, servers)
            }
            pool = ClientPool(addrs, seed=1)
            cluster = build_net_cluster("abd", config, seed=3, enforce=False)
            pool.add_clients([*cluster.readers, *cluster.writers])
            await pool.connect()
            await servers[0].stop()  # stall: quorum needs both servers
            pid = cluster.readers[0].pid
            task = asyncio.ensure_future(pool.run_op(pid, "read"))
            await asyncio.sleep(0.1)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            assert pid not in pool._waiters
            assert pool.ledger.timed_out == 0
            assert pool.runtime.history.pending_of(pid) is None
            await pool.close()
            for server in servers:
                await server.stop()

        asyncio.run(main())


class TestOpTimer:
    """``run_op`` awaits one future; one timer handle per op retransmits
    every ``retry_interval`` and fails the op at its deadline."""

    def test_completed_op_cancels_its_timer(self):
        config = ClusterConfig(S=3, t=1, R=1)

        async def main():
            servers = await start_servers("abd", config, seed=5, enforce=False)
            addrs = {pid: s.address for pid, s in zip(config.server_ids, servers)}
            pool = ClientPool(addrs, seed=1, retry_interval=0.1)
            cluster = build_net_cluster("abd", config, seed=5, enforce=False)
            pool.add_clients([*cluster.readers, *cluster.writers])
            await pool.connect()
            fired = _spy_retransmits(pool)
            pid = cluster.readers[0].pid
            for _ in range(3):
                await pool.run_op(pid, "read", timeout=5.0)
            settled = len(fired)
            await asyncio.sleep(0.35)  # over three intervals
            assert len(fired) == settled
            assert pool.runtime._phase_step == {}
            await pool.close()
            for srv in servers:
                await srv.stop()

        asyncio.run(main())

    def test_stalled_op_retransmits_each_interval_and_times_out_on_time(self):
        async def main():
            pool, pid = _socketless_pool(retry_interval=0.1)
            fired = _spy_retransmits(pool)
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(asyncio.TimeoutError):
                await pool.run_op(pid, "read", timeout=0.35)
            assert loop.time() - started >= 0.35
            # due at 0.1, 0.2 and 0.3; a late tick only makes fewer
            assert 1 <= len(fired) <= 3
            gaps = [b - a for a, b in zip([started, *fired], fired)]
            assert min(gaps) >= 0.1 - 1e-3
            assert pool.ledger.retransmits == len(fired)
            for conn in pool._conns.values():
                # preamble, the query, one copy per retransmit
                assert len(conn.transport.frames) == 2 + len(fired)
            await asyncio.sleep(0.25)
            assert pool.ledger.retransmits == len(fired)  # the timer is gone
            assert pool.ledger.timed_out == 1
            assert pid not in pool._waiters
            assert pool.runtime._phase_step == {}

        asyncio.run(main())

    def test_cancelling_the_caller_abandons_the_op_and_its_timer(self):
        async def main():
            pool, pid = _socketless_pool(retry_interval=0.05)
            fired = _spy_retransmits(pool)
            task = asyncio.ensure_future(pool.run_op(pid, "read", timeout=5.0))
            await asyncio.sleep(0.12)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            settled = len(fired)
            await asyncio.sleep(0.15)
            assert len(fired) == settled
            assert pid not in pool._waiters
            assert pool.runtime.history.pending_of(pid) is None
            assert pool.runtime._phase_step == {}
            assert pool.ledger.timed_out == 0
            # the pid is free: a new op on it starts (and is cancelled)
            again = asyncio.ensure_future(pool.run_op(pid, "read"))
            await asyncio.sleep(0)
            assert pool.runtime.history.pending_of(pid) is not None
            again.cancel()
            with pytest.raises(asyncio.CancelledError):
                await again

        asyncio.run(main())


class _HoldingChaos:
    """Chaos stub that holds every frame until the test fires it."""

    def __init__(self):
        self.held = []

    def apply(self, server, direction, fire):
        self.held.append(fire)


class TestDelayedFramesAfterReconnect:
    def test_a_delayed_frame_goes_to_the_current_link(self):
        async def main():
            chaos = _HoldingChaos()
            pool, pid = _socketless_pool(chaos=chaos, retry_interval=0)
            task = asyncio.ensure_future(pool.run_op(pid, "read"))
            await asyncio.sleep(0)
            assert len(chaos.held) == 3  # one query per server, all held
            # s1's link dies (its transport is closing) and a reconnect
            # installs a new one before the delayed query fires.
            stale = pool._conns[server(1)]
            stale.transport.closed = True
            fresh = _link(pool, server(1))
            pool._install(server(1), fresh)
            for fire in chaos.held:
                fire()
            assert stale.transport.frames == [PREAMBLE]
            assert len(fresh.transport.frames) == 2
            query = FrameBuffer().feed(fresh.transport.frames[1])[0]
            assert Codec().decode_body(query)[:2] == (pid, server(1))
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(main())


class TestHostileFrames:
    def test_a_decodable_type_confused_frame_is_dropped_not_fatal(self):
        """``FastWrite(tag="x")`` is refused at decode (a tag slot admits
        only tags): the frame is counted bad and dropped, the connection
        stays, and the read behind it is answered."""
        config = ClusterConfig(S=4, t=1, R=1)

        async def main():
            srv = NetServer("fast-crash", config, 1, enforce=False)
            await srv.start()
            codec = Codec()
            hostile = codec.encode_frame(writer(1), srv.pid, FastWrite(op_id=1, tag="x"))

            def read(op_id):
                return codec.encode_frame(
                    reader(1), srv.pid, FastRead(op_id=op_id, tag=INITIAL_TAG, r_counter=op_id)
                )

            stream, writer_ = await asyncio.open_connection(*srv.address)
            buffer = FrameBuffer()

            async def next_reply():
                while True:
                    data = await asyncio.wait_for(stream.read(4096), 5.0)
                    assert data, "the server closed the connection"
                    for body in buffer.feed(data):
                        if bytes(body) != PREAMBLE[4:]:
                            return codec.decode_body(body)[2]

            try:
                writer_.write(PREAMBLE + hostile + read(1))
                reply = await next_reply()
                assert isinstance(reply, FastReadAck) and reply.op_id == 1
                assert (srv.frames_in, srv.frames_bad) == (1, 1)
                writer_.write(read(2))  # the same link still serves
                assert (await next_reply()).op_id == 2
                assert len(srv.connections) == 1
            finally:
                writer_.close()
                await srv.stop()

        asyncio.run(main())


class TestChaosWorkloads:
    """In-process chaos through the parity runner's client-side injector."""

    def test_client_side_faults_keep_verdicts_clean(self):
        plan = FaultPlan(
            seed=11,
            default=LinkFaults(
                drop=0.05,
                delay=0.3,
                delay_min=0.001,
                delay_max=0.01,
                duplicate=0.05,
                reorder=0.05,
            ),
        )
        result = run_net_workload(
            "abd",
            ClusterConfig(S=3, t=0, R=2),
            reads_per_reader=6,
            writes_per_writer=3,
            seed=3,
            chaos_plan=plan,
        )
        assert result.check_atomic().ok
        assert result.check_regular().ok
        assert not result.history.incomplete_operations
        assert result.chaos is not None
        stats = result.chaos.stats
        assert stats["frames"] > 0
        assert stats["dropped"] + stats["delayed"] + stats["duplicated"] > 0
        assert result.ledger["ops"]["timed_out"] == 0

    def test_client_trace_is_replayable_from_run_record(self):
        plan = FaultPlan(
            seed=12, default=LinkFaults(drop=0.1, delay=0.2, delay_max=0.005)
        )
        result = run_net_workload(
            "abd",
            ClusterConfig(S=3, t=0, R=2),
            reads_per_reader=4,
            writes_per_writer=2,
            seed=4,
            chaos_plan=plan,
        )
        record = build_run_record(plan, {0: result.chaos.to_dict()}, t=0)
        assert verify_run_record(record)["ok"]


class TestSpawnedClusterRecovery:
    def test_restart_server_fresh_state_same_port(self):
        config = ClusterConfig(S=3, t=1, R=4)
        with ServerCluster.spawn(
            "abd", config, seed=2, enforce=False
        ) as cluster:
            address_before = cluster.addresses[1]
            cluster.kill_server(2)
            assert cluster.live_count == 2
            cluster.restart_server(2)
            assert cluster.live_count == 3
            assert cluster.addresses[1] == address_before
            # The rebuilt cluster serves a full within-budget load.
            spec = LoadSpec(
                protocol="abd",
                addresses=tuple(cluster.addresses),
                t=1,
                readers=4,
                ops_per_client=2,
                write_interval=0.02,
                shards=1,
                seed=6,
                ramp=0.05,
            )
            report = run_load(spec)
            assert report.ok
            assert report.ops_incomplete == 0

    def test_restart_requires_spawn_recipe(self):
        cluster = ServerCluster(processes=[], addresses=[])
        with pytest.raises(SimulationError, match="spawn"):
            cluster.restart_server(1)

    @pytest.mark.skipif(
        default_mp_context() != "fork",
        reason="the silent member reaches the child by inheritance, not by name",
    )
    def test_handshake_timeout_reaps_every_started_member(self, monkeypatch):
        """A member that never reports its port is terminated *and*
        joined, by ``spawn`` and by ``restart_server`` alike — neither
        leaves a child behind that no list knows about."""
        config = ClusterConfig(S=3, t=1, R=1)
        before = set(multiprocessing.active_children())
        with ServerCluster.spawn("abd", config) as cluster:
            members = set(cluster.processes)
            # Every member started from here on is alive and says
            # nothing, however long the parent waits for it.
            monkeypatch.setattr(harness, "_server_entry", _silent_member)
            cluster._spawn_args["start_timeout"] = 0.2
            with pytest.raises(SimulationError, match="did not report a port"):
                cluster.restart_server(2)
            assert cluster.live_count == 2
            assert set(multiprocessing.active_children()) <= before | members
        with pytest.raises(SimulationError, match="did not report a port"):
            ServerCluster.spawn("abd", config, start_timeout=0.2)
        assert set(multiprocessing.active_children()) <= before

    def test_kill_restart_mid_run_keeps_verdicts_clean_at_most_t(self):
        """The ≤ t headline invariant, end to end over OS processes.  The
        fresh-state restart is charged as Section 6.2 charges it: to t
        until the run ends, and to b."""
        config = ClusterConfig(S=5, t=1, R=8, b=1)
        plan = FaultPlan(
            seed=4,
            default=LinkFaults(
                drop=0.02, delay=0.2, delay_min=0.001, delay_max=0.008
            ),
            events=(ServerEvent(server=2, kill_at=0.6, restart_at=1.6),),
        )
        assert plan.max_concurrent_failures() == 1
        with pytest.raises(ConfigurationError, match="Byzantine budget 1"):
            plan.validate(ClusterConfig(S=5, t=1, R=8, b=0))
        with ServerCluster.spawn(
            "abd", config, seed=11, enforce=False
        ) as cluster:
            spec = LoadSpec(
                protocol="abd",
                addresses=tuple(cluster.addresses),
                t=1,
                b=1,
                readers=8,
                ops_per_client=None,
                duration=2.5,
                write_interval=0.05,
                shards=1,
                seed=3,
                timeout=20.0,
                ramp=0.2,
                retry_interval=0.25,
                chaos=plan,
            )
            with ChaosEventDriver(cluster, plan) as driver:
                report = run_load(spec)
        actions = {
            event["action"] for event in driver.executed if event["ok"]
        }
        assert actions == {"kill", "restart"}
        assert report.ok, report.verdicts
        assert report.ops_incomplete == 0
        assert report.degradation["ops"]["timed_out"] == 0
        assert report.ops_complete > 0
        # The chaotic run replays byte-identically from its plan.
        record = build_run_record(plan, report.chaos_shards, t=1, b=1)
        assert record["within_budget"]
        assert verify_run_record(record)["ok"]

    def test_beyond_budget_times_out_cleanly_never_hangs(self):
        """Past t the run must end promptly with a degradation report."""
        config = ClusterConfig(S=3, t=1, R=3)
        plan = FaultPlan(
            seed=5,
            links=((1, LinkFaults(drop=1.0)), (2, LinkFaults(drop=1.0))),
            allow_beyond_budget=True,
        )
        assert plan.beyond_budget(1)
        with ServerCluster.spawn(
            "abd", config, seed=7, enforce=False
        ) as cluster:
            spec = LoadSpec(
                protocol="abd",
                addresses=tuple(cluster.addresses),
                t=1,
                readers=3,
                ops_per_client=1,
                write_interval=0.02,
                shards=1,
                seed=8,
                timeout=1.0,
                ramp=0.1,
                retry_interval=0.3,
                chaos=plan,
            )
            started = time.monotonic()
            report = run_load(spec)
            elapsed = time.monotonic() - started
        assert elapsed < 20.0  # timed out cleanly, did not hang
        assert report.ops_complete == 0
        assert report.ops_incomplete == 4  # 3 readers + the writer
        assert report.degradation["ops"]["timed_out"] == 4
        record = build_run_record(plan, report.chaos_shards, t=1)
        assert not record["within_budget"]
        assert verify_run_record(record)["ok"]


class TestWindowRelativeJudging:
    """Satellite 2: `--connect` against a long-lived cluster must treat
    the one pre-window value as the window's legal initial value."""

    @staticmethod
    def _spec():
        return LoadSpec(
            protocol="abd",
            addresses=(("h", 1), ("h", 2), ("h", 3)),
            t=1,
            readers=2,
        )

    @staticmethod
    def _shard(rows):
        return [
            {
                "shard": 0,
                "clients": 3,
                "ops": rows,
                "dropped": 0,
                "live_servers": 3,
            }
        ]

    def test_pre_window_value_is_legal_initial_value(self):
        # r1 reads 777 (written before the window) before w1's write of 1
        # lands — spuriously "new-old" unless judged window-relative.
        rows = [
            ("r1", "read", None, 777, 0.00, 0.01, 2),
            ("w1", "write", 1, "ok", 0.02, 0.05, 1),
            ("r2", "read", None, 1, 0.06, 0.08, 2),
        ]
        report = merge_shard_results(self._spec(), self._shard(rows))
        assert report.window_initial == 777
        assert report.verdicts["atomic"] is True
        assert report.verdicts["regular"] is True
        # The judged history sees the pre-window value as ⊥.
        first_read = report.history.operations[0]
        assert first_read.is_read and first_read.result == BOTTOM

    def test_two_distinct_foreign_values_stay_violations(self):
        # Two different unwritten values cannot both be "the" initial
        # value — that is a genuine safety violation and must stay one.
        rows = [
            ("r1", "read", None, 777, 0.00, 0.01, 2),
            ("r2", "read", None, 888, 0.02, 0.03, 2),
            ("w1", "write", 1, "ok", 0.04, 0.06, 1),
        ]
        report = merge_shard_results(self._spec(), self._shard(rows))
        assert report.window_initial is None
        assert report.verdicts["atomic"] is False

    def test_window_written_values_never_rewritten(self):
        rows = [
            ("w1", "write", 1, "ok", 0.00, 0.02, 1),
            ("r1", "read", None, 1, 0.03, 0.04, 2),
        ]
        report = merge_shard_results(self._spec(), self._shard(rows))
        assert report.window_initial is None
        assert report.history.operations[-1].result == 1
        assert report.verdicts["atomic"] is True
