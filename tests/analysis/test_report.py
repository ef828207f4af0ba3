"""Tests for the consolidated reproduction report."""

import re

import pytest

from repro.analysis.report import SECTIONS, generate_report, render_explore_stats
from repro.registers.ablations import FLAWS


@pytest.fixture(scope="module")
def report():
    """``(text, all_ok)``, built once: the report runs every experiment."""
    return generate_report()


class TestReport:
    def test_all_sections_pass(self, report):
        text, all_ok = report
        assert all_ok, text

    def test_report_covers_every_experiment_family(self, report):
        text, _ = report
        for marker in (
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E10", "E11", "E12", "E13",
        ):
            assert marker in text
        ids = [
            experiment
            for title in re.findall(r"^### (\S+) — ", text, re.MULTILINE)
            for experiment in title.split("/")
        ]
        assert len(ids) == len(SECTIONS) + 1  # E1/E8 shares one section
        assert len(ids) == len(set(ids)), ids

    def test_every_section_reports_status(self, report):
        text, _ = report
        assert text.count("[ok]") == len(SECTIONS)

    def test_header_reflects_outcome(self, report):
        text, all_ok = report
        assert all_ok
        assert "all claims reproduced" in text

    def test_ablation_row_lists_every_breakable_flaw(self, report):
        text, _ = report
        for name, flaw in FLAWS.items():
            assert (f"{name}: broken in " in text) != flaw.expected_ok, name


class TestExploreStatsRendering:
    def test_renders_coverage_and_pruning(self):
        from repro.explore import ExploreScenario, explore
        from repro.registers.base import ClusterConfig

        result = explore(
            ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1)),
            depth=5,
        )
        text = render_explore_stats(result)
        assert "target        : fast-crash" in text
        assert "pruned by sleep sets" in text
        assert "violations    : 0 found" in text

    def test_memo_line_is_the_memos_own_summary(self):
        from repro.explore import ExploreScenario, explore
        from repro.registers.base import ClusterConfig

        scenario = ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=1))
        result = explore(scenario, depth=6)
        memo = result.memo
        lines = render_explore_stats(result).splitlines()
        assert (
            f"memo          : {memo['states']} states in {memo['variants']} "
            f"variants over {memo['parts']} interned parts"
        ) in lines
        # the hit count is printed once, beside the other search counters
        hits = [line for line in lines if "hits" in line]
        assert len(hits) == 1 and hits[0].startswith("transitions   :")
        assert hits[0].endswith(f", {result.stats.memo_hits} memo hits")
        assert result.stats.memo_hits > 0
        plain = render_explore_stats(explore(scenario, depth=6, memoize=False))
        assert "memo   " not in plain

    def test_notes_infeasible_configurations(self):
        from repro.explore import ExploreScenario, explore
        from repro.registers.base import ClusterConfig

        result = explore(
            ExploreScenario("fast-crash", ClusterConfig(S=4, t=1, R=2)),
            depth=3,
        )
        text = render_explore_stats(result)
        assert "beyond the feasible region" in text
