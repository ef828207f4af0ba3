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

from repro.errors import SimulationError
from repro.net.chaos import (
    FaultPlan,
    LinkFaults,
    ServerEvent,
    build_run_record,
    verify_run_record,
)
from repro.net import harness
from repro.net.client import ClientPool
from repro.net.harness import (
    ChaosEventDriver,
    ServerCluster,
    run_net_workload,
)
from repro.net.loadgen import LoadSpec, merge_shard_results, run_load
from repro.net.server import NetServer, build_net_cluster, start_servers
from repro.registers.base import ClusterConfig
from repro.sim.batch import default_mp_context
from repro.spec.histories import BOTTOM, History, parse_pid


def _silent_member(*args):
    """Stand-in for ``harness._server_entry``: never writes to its pipe."""
    time.sleep(60)


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


class TestChaosWorkloads:
    """In-process chaos through the parity runner, both interceptor sides."""

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

    def test_server_side_faults_keep_verdicts_clean(self):
        plan = FaultPlan(
            seed=13,
            default=LinkFaults(delay=0.4, delay_min=0.001, delay_max=0.01),
        )
        result = run_net_workload(
            "abd",
            ClusterConfig(S=3, t=0, R=2),
            reads_per_reader=4,
            writes_per_writer=2,
            seed=5,
            chaos_plan=plan,
            chaos_side="server",
        )
        assert result.check_atomic().ok
        assert not result.history.incomplete_operations


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
        """The ≤ t headline invariant, end to end over OS processes."""
        config = ClusterConfig(S=5, t=1, R=8)
        plan = FaultPlan(
            seed=4,
            default=LinkFaults(
                drop=0.02, delay=0.2, delay_min=0.001, delay_max=0.008
            ),
            events=(ServerEvent(server=2, kill_at=0.6, restart_at=1.6),),
        )
        assert plan.max_concurrent_failures() == 1
        with ServerCluster.spawn(
            "abd", config, seed=11, enforce=False
        ) as cluster:
            spec = LoadSpec(
                protocol="abd",
                addresses=tuple(cluster.addresses),
                t=1,
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
        record = build_run_record(plan, report.chaos_shards, t=1)
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
