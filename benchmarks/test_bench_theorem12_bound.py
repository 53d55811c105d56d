"""E8 — Theorem 12: verdict stability when the level bound is inflated."""

from repro import ContainmentChecker, theorem12_bound
from repro.workloads import EXAMPLE2_QUERY, INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ


class TestTheorem12Bound:
    def test_bound_stability(self, benchmark, reports):
        report = reports("E8")
        assert report.data["flips"] == 0
        print()
        print(report.render())

        q1, q2 = INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ
        base = theorem12_bound(q1, q2)

        def decide_at_theorem_bound():
            return ContainmentChecker().check(q1, q2, level_bound=base)

        result = benchmark(decide_at_theorem_bound)
        inflated = ContainmentChecker().check(q1, q2, level_bound=4 * base)
        assert result.contained == inflated.contained

    def test_bound_cost_on_infinite_chase(self, benchmark):
        """Deciding against Example 2's infinite chase at the paper bound."""
        from repro.flogic import encode_rule, parse_statement

        q2 = encode_rule(
            parse_statement("qq() :- data(X1, A1, Y1), data(Y1, A1, Z1).")
        )

        def decide():
            return ContainmentChecker().check(EXAMPLE2_QUERY, q2)

        result = benchmark(decide)
        assert result.contained
        assert result.level_bound == theorem12_bound(EXAMPLE2_QUERY, q2)

    def test_inflated_recheck_is_extend_only(self, benchmark):
        """Re-checking at 4x the bound must extend the stored chase, never
        re-run it: the ChaseStore counters show zero extra full chases."""
        from repro.flogic import encode_rule, parse_statement

        # Example 2's chase is infinite, so the 1x prefix cannot already
        # cover the 4x bound — the re-check genuinely needs deeper levels.
        q2 = encode_rule(
            parse_statement("qq() :- data(X1, A1, Y1), data(Y1, A1, Z1).")
        )
        base = theorem12_bound(EXAMPLE2_QUERY, q2)

        def check_then_recheck_inflated():
            # Monolithic schedule: the anytime default stops chasing at
            # the witness level, so only this path drives the stored run
            # all the way to the inflated bound.
            checker = ContainmentChecker(anytime=False)
            first = checker.check(EXAMPLE2_QUERY, q2, level_bound=base)
            inflated = checker.check(EXAMPLE2_QUERY, q2, level_bound=4 * base)
            return checker, first, inflated

        checker, first, inflated = benchmark(check_then_recheck_inflated)
        assert first.contained == inflated.contained
        assert first.chase_outcome == "full-chase"
        assert inflated.chase_outcome == "cache-extend"
        stats = checker.stats
        assert stats.full_chases == 1, f"re-chase detected: {stats}"
        assert stats.extensions == 1
        run = checker.store.peek(EXAMPLE2_QUERY)
        assert run is not None and run.bound >= 4 * base
