"""The explorer's universe, derived: registry entries plus the flaw table."""

from repro.explore import ExploreScenario, explorer
from repro.explore.targets import TARGETS
from repro.registers.base import ClusterConfig

#: name -> (property, expected_ok), in enrolment order.
EXPECTED = {
    "fast-crash": ("atomic", True),
    "fast-byzantine": ("atomic", True),
    "abd": ("atomic", True),
    "maxmin": ("atomic", True),
    "swsr-fast": ("atomic", True),
    "regular-fast": ("regular", True),
    "semifast": ("atomic", True),
    "mwmr": ("atomic", True),
    "naive-fast-mwmr": ("atomic", False),
    "fast-crash@eager-reader": ("atomic", False),
    "fast-crash@timid-reader": ("atomic", False),
    "fast-crash@no-seen-reset": ("atomic", False),
    "fast-crash@no-counter": ("atomic", True),
    "fast-crash@hasty-writer": ("atomic", False),
    "fast-byzantine@gullible-reader": ("atomic", False),
    "fast-byzantine@crash-predicate": ("atomic", False),
}


def test_targets_are_exactly_the_sixteen_with_their_contracts():
    assert list(TARGETS) == list(EXPECTED)
    for name, target in TARGETS.items():
        assert (target.property, target.expected_ok) == EXPECTED[name], name
        assert target.multi_writer == (name in ("mwmr", "naive-fast-mwmr"))


def test_exhaustive_fast_crash_search_does_exactly_this_work():
    """The explorer's work depends on which states the automata can tell
    apart — every attribute is fingerprinted — so a refactor of Figure 2
    that adds, drops or renames state shows up here before it shows up
    in the benchmark's frozen counts."""
    scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
    result = explorer.explore(scenario, 12)
    assert result.complete and not result.found_violation
    stats = result.stats.to_dict()
    assert (stats["transitions"], stats["schedules"], stats["memo_hits"]) == (
        5699, 33504, 2160,
    )
