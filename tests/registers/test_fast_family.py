"""Figure 5 at ``b = 0`` is Figure 2; every flaw is one guard away.

The Byzantine automata subclass the crash ones and override only the
guards Figure 5 adds, so with no Byzantine budget they must produce the
crash protocol's histories operation for operation on every runtime —
and each ablation must differ from its faithful base by exactly one
class.
"""

import pytest

from repro.explore import ExploreScenario, explorer, flaw_witness
from repro.registers import fast_byzantine, fast_crash
from repro.registers.ablations import FLAWS
from repro.registers.base import ClusterConfig
from repro.sim.controller import ScriptedExecution
from repro.sim.ids import reader, servers, writer
from repro.workloads import run_scenario

CONFIG = ClusterConfig(S=13, t=3, R=2)


def _observable(history):
    return [
        (str(op.proc), op.kind, op.value, op.result, op.invoked_at, op.responded_at)
        for op in history.operations
    ]


class TestByzantineAtB0IsCrash:
    @pytest.mark.parametrize(
        "scenario", ["smoke", "contention", "faulty", "worst-case-faults", "fault-burst"]
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_simulated_histories_identical(self, scenario, seed):
        crash = run_scenario("fast-crash", CONFIG, scenario, seed=seed)
        signed = run_scenario("fast-byzantine", CONFIG, scenario, seed=seed)
        assert _observable(signed.history) == _observable(crash.history)
        assert signed.messages_sent() == crash.messages_sent()

    def test_scripted_histories_identical(self):
        """Partial write, overlapping reads with held and late replies,
        a stale read message overtaken by a newer one."""

        def schedule(build):
            execution = ScriptedExecution()
            build(ClusterConfig(S=5, t=1, R=2)).install(execution)
            everyone = servers(5)
            write = execution.invoke(writer(1), "write", "a")
            execution.deliver_requests(write, to=everyone[:2])
            first = execution.invoke(reader(1), "read")
            execution.deliver_requests(first, to=everyone[:4])
            second = execution.invoke(reader(2), "read")
            execution.deliver_requests(second, to=everyone[1:])
            execution.deliver_replies(second, from_=everyone[1:])
            execution.deliver_replies(first, from_=everyone[:4])
            again = execution.invoke(reader(1), "read")
            execution.deliver_requests(again, to=everyone[4:])
            execution.deliver_requests(first, to=everyone[4:])  # stale: refused
            execution.run_to_quiescence()
            return _observable(execution.history)

        assert schedule(fast_byzantine.SPEC.build) == schedule(fast_crash.SPEC.build)

    def test_explorer_does_identical_work(self):
        """Same reachable states, same pruning: the signed automata add
        no history-dependent attribute to fingerprint."""
        config = ClusterConfig(S=4, t=1, R=1)
        work = [
            explorer.explore(ExploreScenario(name, config), 12).stats.to_dict()
            for name in ("fast-crash", "fast-byzantine")
        ]
        assert work[0] == work[1]


class TestFlawTable:
    @pytest.mark.parametrize("name", sorted(FLAWS))
    def test_row_builds_with_exactly_one_class_replaced(self, name):
        flaw = FLAWS[name]
        config = ClusterConfig(S=6, t=1, R=2, b=1 if flaw.base is fast_byzantine.SPEC else 0)
        flawed = flaw.build(config)
        faithful = flaw.base.build(config, enforce=False)
        differing = {
            type(ours)
            for ours, theirs in zip(flawed.all_processes(), faithful.all_processes())
            if type(ours) is not type(theirs)
        }
        assert differing == {flaw.automaton}
        assert (flawed.authority is None) == (faithful.authority is None)
        assert len(flawed.all_processes()) == len(faithful.all_processes())

    def test_each_flaw_overrides_one_guard(self):
        for flaw in FLAWS.values():
            overridden = [
                attr for attr in vars(flaw.automaton) if not attr.startswith("__")
            ]
            assert len(overridden) == 1 and overridden[0].startswith("_"), flaw.name
            # a misspelt guard would add a method nothing calls: a no-op row
            assert overridden == [flaw.guard], flaw.name
            assert callable(getattr(flaw.owner, flaw.guard, None)), flaw.name
            assert getattr(flaw.automaton, flaw.guard) is not getattr(
                flaw.owner, flaw.guard
            ), flaw.name

    def test_witnesses_are_the_rows_that_have_one(self):
        """Every row is hunted inside the feasible region, and only the
        row expected to survive there stays clean."""
        assert [name for name, flaw in FLAWS.items() if flaw.expected_ok] == [
            "no-counter"
        ]
        for flaw in FLAWS.values():
            assert flaw.base.requirement(flaw.config) is None, flaw.name
            assert (flaw_witness(flaw) is None) == flaw.expected_ok, flaw.name
