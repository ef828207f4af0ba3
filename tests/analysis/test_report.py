"""Tests for the consolidated reproduction report."""

from repro.analysis.report import SECTIONS, generate_report, render_explore_stats


class TestReport:
    def test_all_sections_pass(self):
        text, all_ok = generate_report()
        assert all_ok, text

    def test_report_covers_every_experiment_family(self):
        text, _ = generate_report()
        for marker in (
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E10", "E11", "E12",
        ):
            assert marker in text

    def test_every_section_reports_status(self):
        text, _ = generate_report()
        assert text.count("[ok]") == len(SECTIONS)

    def test_header_reflects_outcome(self):
        text, all_ok = generate_report()
        assert all_ok
        assert "all claims reproduced" in text


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
        assert (
            f"memo          : {memo['states']} states in {memo['variants']} "
            f"variants over {memo['parts']} interned parts; "
            f"hits {result.stats.memo_hits} local, 0 base"
        ) in render_explore_stats(result).splitlines()
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
