"""The explorer's universe, derived: registry entries plus the flaw table."""

import pytest

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


#: (target, config, scenario extras, depth) -> (transitions, schedules,
#: memo hits), recorded before the baselines became one client family.
PINNED_WORK = [
    ("fast-crash", ClusterConfig(S=4, t=1, R=1), {}, 12, (5699, 33504, 2160)),
    ("abd", ClusterConfig(S=3, t=1, R=1), {}, 10, (5942, 33522, 368)),
    ("maxmin", ClusterConfig(S=3, t=1, R=1), {}, 8, (18987, 34582, 101)),
    (
        "swsr-fast", ClusterConfig(S=3, t=1, R=1),
        {"writes_per_writer": 2, "reads_per_reader": 2}, 9, (23028, 50856, 177),
    ),
    (
        "regular-fast", ClusterConfig(S=3, t=1, R=1),
        {"reads_per_reader": 2}, 8, (4434, 7392, 42),
    ),
    ("semifast", ClusterConfig(S=3, t=1, R=1), {}, 10, (3316, 10464, 282)),
    ("mwmr", ClusterConfig(S=2, t=0, R=1, W=2), {}, 8, (9329, 20776, 133)),
    ("naive-fast-mwmr", ClusterConfig(S=2, t=1, R=1, W=2), {}, 7, (1352, 815, 0)),
]


@pytest.mark.parametrize(
    "target, config, extras, depth, work", PINNED_WORK, ids=[row[0] for row in PINNED_WORK]
)
def test_exhaustive_search_does_exactly_this_work(target, config, extras, depth, work):
    """The explorer's work depends on which states the automata can tell
    apart — every attribute is fingerprinted — so a refactor of an
    automaton that adds, drops or renames state shows up here before it
    shows up in the benchmark's frozen counts."""
    result = explorer.explore(ExploreScenario(target, config, **extras), depth)
    assert result.complete
    assert result.found_violation == (not TARGETS[target].expected_ok)
    stats = result.stats.to_dict()
    assert (stats["transitions"], stats["schedules"], stats["memo_hits"]) == work
