"""Unit and property tests for the deterministic fault-injection layer.

The load-bearing guarantee is *byte-replayability*: the injected-fault
trace of any chaotic run must be a pure function of the serialized
``FaultPlan`` plus the per-link frame counters, independent of socket
timing.  The hypothesis suites drive arbitrary plans through arbitrary
interleavings and assert the per-link digests always re-derive
identically; the rest pins the budget accounting against the unified
adversary model and the ledger/run-record plumbing.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import Adversary
from repro.errors import ConfigurationError
from repro.net.chaos import (
    BackoffPolicy,
    ChaosInjector,
    DegradationLedger,
    FaultPlan,
    LinkFaults,
    Partition,
    ServerEvent,
    build_run_record,
    combined_digest,
    plan_summary,
    verify_run_record,
)
from repro.registers.base import ClusterConfig
from repro.sim.rng import substream

# ----------------------------------------------------------------------
# strategies


link_faults = st.builds(
    LinkFaults,
    drop=st.floats(0.0, 1.0),
    delay=st.floats(0.0, 1.0),
    delay_min=st.floats(0.0, 0.01),
    delay_max=st.floats(0.01, 0.1),
    duplicate=st.floats(0.0, 1.0),
    reorder=st.floats(0.0, 1.0),
)

plans = st.builds(
    FaultPlan,
    seed=st.integers(0, 2**32 - 1),
    default=link_faults,
    links=st.lists(
        st.tuples(st.integers(1, 5), link_faults), max_size=3, unique_by=lambda kv: kv[0]
    ).map(lambda pairs: tuple(sorted(pairs, key=lambda kv: kv[0]))),
    partitions=st.lists(
        st.builds(
            Partition,
            server=st.integers(1, 5),
            start=st.floats(0.0, 2.0),
            end=st.floats(2.0, 5.0),
        ),
        max_size=2,
    ).map(tuple),
    events=st.lists(
        st.builds(
            ServerEvent,
            server=st.integers(1, 5),
            kill_at=st.floats(0.0, 2.0),
            restart_at=st.one_of(st.none(), st.floats(2.001, 5.0)),
        ),
        max_size=2,
    ).map(tuple),
    reorder_hold=st.floats(0.0, 0.2),
    allow_beyond_budget=st.just(True),
)

#: A run-shaped interleaving: which link stream each frame hits, in order.
interleavings = st.lists(
    st.tuples(st.integers(1, 5), st.sampled_from(["send", "recv"])),
    min_size=1,
    max_size=60,
)


class TestDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(plan=plans, steps=interleavings)
    def test_same_plan_same_decisions(self, plan, steps):
        a = ChaosInjector(plan, side="client", shard=0)
        b = ChaosInjector(plan, side="client", shard=0)
        for server, direction in steps:
            assert a.decide(server, direction) == b.decide(server, direction)
        assert a.link_digests() == b.link_digests()
        assert a.digest() == b.digest()

    @settings(max_examples=60, deadline=None)
    @given(plan=plans, steps=interleavings)
    def test_trace_replays_byte_identically_from_counters(self, plan, steps):
        live = ChaosInjector(plan, side="client", shard=3)
        for server, direction in steps:
            live.decide(server, direction)
        replayed = ChaosInjector.replay_digest(
            plan, "client", 3, live.counters()
        )
        assert replayed == live.link_digests()
        assert combined_digest(replayed) == live.digest()

    @settings(max_examples=40, deadline=None)
    @given(plan=plans, steps=interleavings)
    def test_interleaving_order_does_not_change_link_digests(self, plan, steps):
        forward = ChaosInjector(plan, side="client", shard=0)
        for server, direction in steps:
            forward.decide(server, direction)
        # Same per-link decision counts consumed in a different global
        # order must yield the same per-link digests: timing only
        # interleaves the streams, it never changes them.
        shuffled = ChaosInjector(plan, side="client", shard=0)
        for server, direction in reversed(steps):
            shuffled.decide(server, direction)
        assert shuffled.link_digests() == forward.link_digests()

    @settings(max_examples=40, deadline=None)
    @given(plan=plans)
    def test_plan_round_trips_through_json(self, plan):
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_distinct_shards_get_distinct_streams(self):
        plan = FaultPlan(seed=5, default=LinkFaults(drop=0.5))
        a = ChaosInjector(plan, side="client", shard=0)
        b = ChaosInjector(plan, side="client", shard=1)
        fates_a = [a.decide(1, "send").drop for _ in range(64)]
        fates_b = [b.decide(1, "send").drop for _ in range(64)]
        assert fates_a != fates_b

    def test_sides_get_distinct_streams(self):
        plan = FaultPlan(seed=5, default=LinkFaults(drop=0.5))
        client = ChaosInjector(plan, side="client", shard=0)
        server = ChaosInjector(plan, side="server", shard=0)
        assert [client.decide(1, "send").drop for _ in range(64)] != [
            server.decide(1, "send").drop for _ in range(64)
        ]


class TestBudgetAccounting:
    def config(self, S=5, t=1, b=0):
        return ClusterConfig(S=S, t=t, R=2, b=b)

    def test_within_budget_plan_validates(self):
        plan = FaultPlan(
            seed=1,
            default=LinkFaults(drop=0.1),
            events=(ServerEvent(server=2, kill_at=0.5, restart_at=1.5),),
        )
        # the fresh-state restart spends b as well as t
        with pytest.raises(ConfigurationError, match="Byzantine budget 1"):
            plan.validate(self.config())
        plan.validate(self.config(b=1))
        assert plan.max_concurrent_failures() == 1
        assert plan.beyond_budget(1)
        assert not plan.beyond_budget(1, b=1)

    def test_a_fresh_state_restart_is_a_byzantine_fault(self):
        """Section 6.2's memory loss, at S=3 t=1: the write completes via
        {s1, s2}, s2 forgets it, and a read via {s2, s3} returns ⊥.  No
        crash-only budget admits that restart."""
        from repro.faults.byzantine import MemoryWipeServer
        from repro.registers.registry import get_protocol
        from repro.sim.controller import ScriptedExecution
        from repro.sim.ids import reader, server, writer
        from repro.spec.atomicity import check_swmr_atomicity
        from repro.spec.histories import BOTTOM
        from repro.spec.regularity import check_swmr_regularity

        config = ClusterConfig(S=3, t=1, R=1)
        cluster = get_protocol("abd").build(config)
        wiped = MemoryWipeServer(server(2), lambda: cluster.honest_server(2))
        cluster.replace_server(2, wiped)
        execution = cluster.install(ScriptedExecution())
        write = execution.invoke(writer(1), "write", "v")
        execution.complete_operation(write, via=[server(1), server(2)])
        wiped.wipe()
        read = execution.invoke(reader(1), "read")
        execution.complete_operation(read, via=[server(2), server(3)])
        assert read.result == BOTTOM
        assert not check_swmr_atomicity(execution.history).ok
        assert not check_swmr_regularity(execution.history).ok
        plan = FaultPlan(events=(ServerEvent(server=2, kill_at=0.5, restart_at=1.0),))
        with pytest.raises(ConfigurationError, match="Byzantine budget"):
            plan.validate(ClusterConfig(S=3, t=1, R=1, b=0))

    def test_a_restarted_server_stays_charged_to_t(self):
        plan = FaultPlan(
            events=(
                ServerEvent(server=1, kill_at=0.5, restart_at=1.0),
                ServerEvent(server=2, kill_at=2.0),
            ),
        )
        assert plan.max_concurrent_failures() == 2
        for b in (0, 1):
            with pytest.raises(ConfigurationError, match="crash budget 2"):
                plan.validate(self.config(S=5, t=1, b=b))

    def test_full_outage_link_counts_as_failed_server(self):
        plan = FaultPlan(seed=1, links=((3, LinkFaults(drop=1.0)),))
        assert plan.max_concurrent_failures() == 1
        with pytest.raises(ConfigurationError, match="crash budget"):
            plan.validate(self.config(t=0))

    def test_full_outage_default_fails_every_server_without_an_override(self):
        plan = FaultPlan(default=LinkFaults(drop=1.0), allow_beyond_budget=True)
        assert plan.max_concurrent_failures(servers=5) == 5
        assert all(plan.beyond_budget(t, servers=5) for t in range(5))
        assert not plan.beyond_budget(5, servers=5)
        assert "peak_failures=5" in plan_summary(plan, servers=5)
        # an override of its own takes a server out of the outage
        spared = FaultPlan(
            default=LinkFaults(drop=1.0),
            links=((2, LinkFaults(drop=0.1)),),
            allow_beyond_budget=True,
        )
        assert spared.max_concurrent_failures(servers=5) == 4
        # without S the count is unknown, never a silent zero
        with pytest.raises(ConfigurationError, match="cluster's S"):
            plan.beyond_budget(1)

    def test_full_outage_default_needs_the_opt_in_and_spends_every_server(self):
        config = self.config(S=5, t=1)
        with pytest.raises(ConfigurationError, match="allow_beyond_budget"):
            FaultPlan(default=LinkFaults(drop=1.0)).validate(config)
        plan = FaultPlan(default=LinkFaults(drop=1.0), allow_beyond_budget=True)
        plan.validate(config)  # explicit opt-in passes
        adversary = plan.adversary(config.S)
        assert adversary.crash_budget == 5
        assert not adversary.admits_failures(config.S + 1)

    def test_full_outage_default_run_record_is_beyond_budget(self):
        plan = FaultPlan(default=LinkFaults(drop=1.0), allow_beyond_budget=True)
        record = build_run_record(plan, {}, t=1, servers=5)
        assert record["max_concurrent_failures"] == 5
        assert record["within_budget"] is False

    def test_overlapping_faults_on_one_server_count_once(self):
        plan = FaultPlan(
            seed=1,
            partitions=(Partition(server=2, start=0.0, end=2.0),),
            events=(ServerEvent(server=2, kill_at=1.0, restart_at=1.5),),
        )
        assert plan.max_concurrent_failures() == 1

    def test_concurrent_failures_on_distinct_servers_sum(self):
        plan = FaultPlan(
            seed=1,
            partitions=(
                Partition(server=1, start=0.0, end=2.0),
                Partition(server=2, start=1.0, end=3.0),
            ),
            allow_beyond_budget=True,
        )
        assert plan.max_concurrent_failures() == 2
        assert plan.beyond_budget(1)

    def test_back_to_back_windows_do_not_overlap(self):
        plan = FaultPlan(
            seed=1,
            partitions=(
                Partition(server=1, start=0.0, end=1.0),
                Partition(server=2, start=1.0, end=2.0),
            ),
        )
        assert plan.max_concurrent_failures() == 1

    def test_beyond_budget_plan_is_rejected_without_opt_in(self):
        plan = FaultPlan(
            seed=1,
            links=((1, LinkFaults(drop=1.0)), (2, LinkFaults(drop=1.0))),
        )
        with pytest.raises(ConfigurationError, match="crash budget"):
            plan.validate(self.config(t=1))
        plan_ok = FaultPlan(
            seed=1,
            links=plan.links,
            allow_beyond_budget=True,
        )
        plan_ok.validate(self.config(t=1))  # explicit opt-in passes

    def test_validate_rejects_unknown_server_and_bad_windows(self):
        with pytest.raises(ConfigurationError, match="cluster has S"):
            FaultPlan(links=((9, LinkFaults()),)).validate(self.config())
        with pytest.raises(ConfigurationError, match="partition"):
            FaultPlan(
                partitions=(Partition(server=1, start=2.0, end=1.0),)
            ).validate(self.config())
        with pytest.raises(ConfigurationError, match="kill/restart"):
            FaultPlan(
                events=(ServerEvent(server=1, kill_at=2.0, restart_at=1.0),)
            ).validate(self.config())
        with pytest.raises(ConfigurationError, match="probability"):
            FaultPlan(default=LinkFaults(drop=1.5)).validate(self.config())

    def test_adversary_mapping_is_crash_only(self):
        plan = FaultPlan(seed=1, events=(ServerEvent(server=1, kill_at=0.0),))
        adversary = Adversary.for_plan(plan)
        assert adversary.crash_budget == 1
        assert adversary.byzantine_budget == 0
        assert adversary.admits_failures(1)
        assert not adversary.admits_failures(2)
        # ...until a server comes back blank: each one spends b
        restarted = FaultPlan(
            seed=1,
            events=(
                ServerEvent(server=1, kill_at=0.0, restart_at=1.0),
                ServerEvent(server=1, kill_at=2.0, restart_at=3.0),
            ),
        )
        assert Adversary.for_plan(restarted) == Adversary(crash_budget=1, byzantine_budget=1)

    def test_generated_plan_within_budget(self):
        plan = FaultPlan.generate(7, servers=5, t=1)
        plan.validate(self.config())
        assert plan.max_concurrent_failures() <= 1
        assert [e.restart_at for e in plan.events] == [None]  # t >= 1: one kill

    def test_generated_beyond_plan_exceeds_t(self):
        plan = FaultPlan.generate(9, servers=3, t=1, beyond=1)
        assert plan.allow_beyond_budget
        assert plan.beyond_budget(1)
        assert plan.max_concurrent_failures() == 2
        plan.validate(ClusterConfig(S=3, t=1, R=2))  # opt-in, so passes

    def test_generate_is_deterministic(self):
        assert FaultPlan.generate(7, 5, 1) == FaultPlan.generate(7, 5, 1)
        assert FaultPlan.generate(7, 5, 1) != FaultPlan.generate(8, 5, 1)


class TestRunRecords:
    def _record(self):
        plan = FaultPlan(seed=3, default=LinkFaults(drop=0.2, delay=0.5))
        injector = ChaosInjector(plan, side="client", shard=0)
        for _ in range(50):
            injector.decide(1, "send")
            injector.decide(2, "recv")
        return build_run_record(
            plan, {0: injector.to_dict()}, t=1, summary={"ops_complete": 10}
        )

    def test_verify_accepts_faithful_record(self):
        record = self._record()
        outcome = verify_run_record(record)
        assert outcome["ok"]
        assert outcome["shards"]["0"]["match"]

    def test_verify_round_trips_through_json(self):
        record = json.loads(json.dumps(self._record()))
        assert verify_run_record(record)["ok"]

    def test_verify_flags_tampered_counters(self):
        record = self._record()
        record["shards"]["0"]["counters"]["1:send"] += 1
        assert not verify_run_record(record)["ok"]

    def test_verify_flags_wrong_plan_seed(self):
        record = self._record()
        record["plan"]["seed"] += 1
        assert not verify_run_record(record)["ok"]

    def test_verify_rejects_non_records(self):
        with pytest.raises(ConfigurationError, match="run record"):
            verify_run_record({"format": "something-else"})

    def test_record_carries_budget_verdict(self):
        record = self._record()
        assert record["within_budget"] is True
        assert record["declared_t"] == 1
        assert record["declared_b"] == 0

    def test_record_charges_a_restart_to_b(self):
        plan = FaultPlan(
            events=(ServerEvent(server=1, kill_at=0.5, restart_at=1.0),),
            allow_beyond_budget=True,
        )
        assert build_run_record(plan, {}, t=1)["within_budget"] is False
        assert build_run_record(plan, {}, t=1, b=1)["within_budget"] is True


class TestLedger:
    def test_op_classification(self):
        ledger = DegradationLedger(slow_threshold=0.5)
        ledger.op_completed(0.1)
        ledger.op_completed(0.9)
        ledger.op_timed_out()
        snap = ledger.to_dict()
        assert snap["ops"] == {"fast": 1, "slow": 1, "timed_out": 1}

    def test_link_uptime_accounting(self):
        ledger = DegradationLedger()
        ledger.start(100.0, servers=(1, 2))
        ledger.link_up(1, 100.0)
        ledger.link_up(2, 100.0)
        ledger.link_down(2, 101.0)
        ledger.link_up(2, 103.0)
        ledger.finalize(104.0)
        snap = ledger.to_dict()
        assert snap["observed_s"] == pytest.approx(4.0)
        assert snap["links"]["1"]["up_s"] == pytest.approx(4.0)
        assert snap["links"]["2"]["up_s"] == pytest.approx(2.0)

    def test_merge_sums_and_computes_uptime(self):
        a = DegradationLedger()
        a.start(0.0, servers=(1,))
        a.link_up(1, 0.0)
        a.op_completed(0.1)
        a.finalize(2.0)
        b = DegradationLedger()
        b.start(0.0, servers=(1,))
        b.link_up(1, 1.0)
        b.op_timed_out()
        b.retransmits = 3
        b.finalize(2.0)
        merged = DegradationLedger.merge([a.to_dict(), b.to_dict()])
        assert merged["ops"] == {"fast": 1, "slow": 0, "timed_out": 1}
        assert merged["retransmits"] == 3
        # 2s + 1s up over 4 observed ledger-seconds.
        assert merged["uptime"]["1"] == pytest.approx(0.75)

    def test_merge_of_nothing_is_empty(self):
        merged = DegradationLedger.merge([])
        assert merged["ops"]["timed_out"] == 0
        assert merged["uptime"] == {}


class TestBackoffPolicy:
    def test_grows_and_caps(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=1.0, jitter=0.0)
        rng = substream(1, "test-backoff")
        delays = [policy.delay(attempt, rng) for attempt in range(6)]
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.4, 0.8])
        assert delays[4] == delays[5] == pytest.approx(1.0)

    def test_jitter_stays_within_band(self):
        policy = BackoffPolicy(base=0.1, factor=1.0, cap=1.0, jitter=0.5)
        rng = substream(2, "test-backoff")
        for attempt in range(200):
            delay = policy.delay(attempt, rng)
            assert 0.05 <= delay <= 0.15


class TestPlanSummary:
    def test_mentions_the_interesting_parts(self):
        plan = FaultPlan(
            seed=7,
            links=((2, LinkFaults(drop=1.0)),),
            events=(ServerEvent(server=1, kill_at=0.5, restart_at=2.0),),
            allow_beyond_budget=True,
        )
        text = plan_summary(plan)
        assert "seed=7" in text
        assert "outage=s2" in text
        assert "kill=s1@0.5s" in text
        assert "BEYOND-BUDGET" in text
