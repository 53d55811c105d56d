"""E10 — baseline comparison: Sigma_FL-aware checker vs Chandra-Merlin.

Times both deciders on the same pair, and regenerates the corpus-wide
verdict table showing the containments only the paper's machinery finds.
"""

from repro import ContainmentChecker, contained_classic
from repro.workloads import INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ


class TestBaselineGap:
    def test_baseline_gap_report(self, reports):
        report = reports("E10")
        assert report.data["classic_only"] == 0  # classic is sound
        assert report.data["sigma_only"] >= 2    # the paper's examples at least
        print()
        print(report.render())

    def test_classic_checker_speed(self, benchmark):
        result = benchmark(contained_classic, INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ)
        assert not result.contained  # fast but blind to the constraints

    def test_sigma_checker_speed(self, benchmark):
        def decide():
            return ContainmentChecker().check(INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ)

        result = benchmark(decide)
        assert result.contained  # slower, but correct under Sigma_FL
