"""Load-generator tests: spawned server clusters, sharded clients,
merged judged reports, and the crash fault over real processes.

Kept small (tens of clients, a few ops each) — the million-client
numbers belong to the benchmark harness, not the test suite; what is
under test here is the plumbing: shard slicing, history merging,
verdict wiring and fault tolerance.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.net import LoadSpec, ServerCluster, run_load, sim_rounds_check
from repro.registers.base import ClusterConfig


@pytest.fixture
def abd_cluster():
    # Fresh cluster per test: the register's state persists across load
    # runs, so a shared cluster would let one test's final value leak
    # into the next test's history as an unwritten read result.
    config = ClusterConfig(S=5, t=1, R=64)
    with ServerCluster.spawn("abd", config, seed=21, enforce=False) as cluster:
        yield cluster


class TestLoadSpec:
    def test_needs_addresses(self):
        with pytest.raises(ConfigurationError, match="address"):
            LoadSpec(protocol="abd", addresses=())

    def test_needs_stop_rule(self):
        with pytest.raises(ConfigurationError, match="stop rule"):
            LoadSpec(
                protocol="abd",
                addresses=(("127.0.0.1", 1),),
                ops_per_client=None,
                duration=None,
            )

    def test_config_inferred_from_addresses(self):
        spec = LoadSpec(
            protocol="abd",
            addresses=(("a", 1), ("b", 2), ("c", 3)),
            t=1,
            readers=7,
        )
        assert (spec.config.S, spec.config.t, spec.config.R) == (3, 1, 7)


class TestRunLoad:
    def test_sharded_load_merges_and_judges(self, abd_cluster):
        spec = LoadSpec(
            protocol="abd",
            addresses=tuple(abd_cluster.addresses),
            t=1,
            readers=12,
            ops_per_client=3,
            write_interval=0.02,
            shards=2,
            seed=5,
        )
        report = run_load(spec)
        assert report.ok
        assert report.verdicts["atomic"] is True
        assert report.verdicts["regular"] is True
        assert report.ops_complete >= 12 * 3
        assert report.ops_incomplete == 0
        assert report.clients == 13  # 12 readers + the writer
        assert report.throughput > 0
        # ABD reads are two-phase, never fast.
        assert set(report.rounds_histogram()["read"]) == {2}
        assert report.fast_read_fraction == 0.0
        # Merged op ids are dense and ordered by invocation.
        ids = [op.op_id for op in report.history.operations]
        assert ids == list(range(1, len(ids) + 1))
        invoked = [op.invoked_at for op in report.history.operations]
        assert invoked == sorted(invoked)

    def test_report_dict_is_json_clean(self, abd_cluster):
        spec = LoadSpec(
            protocol="abd",
            addresses=tuple(abd_cluster.addresses),
            t=1,
            readers=4,
            ops_per_client=2,
            write_interval=0.02,
            seed=6,
        )
        report = run_load(spec)
        payload = report.to_dict()
        assert payload["format"] == "repro-load-report/v1"
        decoded = json.loads(json.dumps(payload))
        assert decoded["protocol"] == "abd"
        assert decoded["ops_complete"] == report.ops_complete
        assert decoded["read_latency"]["count"] == report.ops_complete - len(
            [op for op in report.history.complete_operations if op.is_write]
        )
        assert decoded["verdicts"] == {"regular": True, "atomic": True}

    def test_sim_cross_check_agrees(self, abd_cluster):
        spec = LoadSpec(
            protocol="abd",
            addresses=tuple(abd_cluster.addresses),
            t=1,
            readers=6,
            ops_per_client=3,
            write_interval=0.02,
            seed=7,
        )
        report = run_load(spec)
        check = sim_rounds_check(spec, report)
        assert check["agree"], check
        assert check["net_read_rounds"] == [2]
        assert check["sim_read_rounds"] == [2]


class TestWriters:
    def test_lone_writer_writes_one_two_three(self, abd_cluster):
        report = run_load(
            LoadSpec(
                protocol="abd",
                addresses=tuple(abd_cluster.addresses),
                t=1,
                readers=2,
                ops_per_client=3,
                write_interval=0.01,
                seed=43,
            )
        )
        written = [op.value for op in report.history.operations if op.is_write]
        assert written
        assert written == list(range(1, len(written) + 1))
        assert report.ok

    def test_each_writer_writes_values_of_its_own(self):
        # Two writers writing equal values leave the multi-writer judge
        # unable to tell their writes apart, which can hide a violation.
        config = ClusterConfig(S=3, t=1, R=1, W=2)
        with ServerCluster.spawn("mwmr", config, seed=41, enforce=False) as cluster:
            report = run_load(
                LoadSpec(
                    protocol="mwmr",
                    addresses=tuple(cluster.addresses),
                    t=1,
                    readers=1,
                    writers=2,
                    ops_per_client=2,
                    write_interval=0.01,
                    seed=42,
                )
            )
        written = [op.value for op in report.history.operations if op.is_write]
        assert len(written) >= 2
        assert len(set(written)) == len(written)
        assert report.ok


class TestCrashFault:
    def test_load_survives_killed_server(self):
        # t=1 abd cluster; hard-kill one member, then drive a load — every
        # client must still terminate against the surviving S - t quorum.
        config = ClusterConfig(S=5, t=1, R=16)
        with ServerCluster.spawn(
            "abd", config, seed=31, enforce=False
        ) as cluster:
            assert cluster.live_count == 5
            cluster.kill_server(3)
            assert cluster.live_count == 4
            spec = LoadSpec(
                protocol="abd",
                addresses=tuple(cluster.addresses),
                t=1,
                readers=8,
                ops_per_client=3,
                write_interval=0.02,
                seed=32,
                timeout=15.0,
            )
            report = run_load(spec)
        assert report.ok
        assert report.ops_incomplete == 0
        assert report.verdicts["atomic"] is True
