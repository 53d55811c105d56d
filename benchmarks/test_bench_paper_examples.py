"""E1/E2/E3 — the paper's worked examples, asserted and timed.

Regenerates the Section-1 containment table and the Example-1 head
rewrite, then benchmarks the containment decision itself.
"""

from repro.chase.engine import chase
from repro import ContainmentChecker, contained_classic
from repro.core.terms import Variable
from repro.workloads import (
    EXAMPLE1_QUERY,
    INTRO_JOINABLE_Q,
    INTRO_JOINABLE_QQ,
    INTRO_MANDATORY_Q,
    INTRO_MANDATORY_QQ,
)


class TestIntroJoinable:
    """E1: q ⊆ qq for the joinable-attributes example."""

    def test_intro_joinable(self, benchmark, reports):
        report = reports("E1")
        assert report.data["matches"] == 4
        print()
        print(report.render())

        def decide():
            return ContainmentChecker().check(INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ)

        result = benchmark(decide)
        assert result.contained
        assert not contained_classic(INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ).contained


class TestIntroMandatory:
    """E2: q ⊆ qq for the mandatory-attributes example."""

    def test_intro_mandatory(self, benchmark):
        def decide():
            return ContainmentChecker().check(INTRO_MANDATORY_Q, INTRO_MANDATORY_QQ)

        result = benchmark(decide)
        assert result.contained
        assert result.witness[Variable("W")].is_null  # maps onto the invented value
        assert not ContainmentChecker().check(
            INTRO_MANDATORY_QQ, INTRO_MANDATORY_Q
        ).contained


class TestExample1HeadRewrite:
    """E3: chasing q(V1,V2) rewrites the head to q(V1,V1)."""

    def test_example1_head_rewrite(self, benchmark, reports):
        report = reports("E3")
        assert report.data["head_matches_paper"]
        print()
        print(report.render())

        result = benchmark(chase, EXAMPLE1_QUERY)
        v1 = Variable("V1")
        assert result.head == (v1, v1)
        assert result.saturated
