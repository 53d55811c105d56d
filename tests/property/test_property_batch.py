"""Property tests: a batch decides each pair exactly as a single check does.

``check_all`` and ``check`` go through one decision funnel, so for either
probe schedule, governed or not, every batch result must carry the
verdict, reason, witness level and chase depth of the matching ``check``.
Random groups of pairs share a ``q1``, so each group exercises the shared
chase session (and, for the monolithic schedule, the group chase billed
to its first pair).  The process-pool path runs on the E10 corpus only:
a pool per hypothesis example would be too slow.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.containment.bounded import ContainmentChecker
from repro.core.errors import ChaseBudgetExceeded
from repro.governance.budget import ExecutionBudget
from repro.workloads import QueryGenerator
from repro.workloads.corpus import PAPER_CONTAINMENT_PAIRS

SETTINGS = settings(max_examples=25, deadline=None)

MODES = [
    pytest.param(anytime, budget, id=f"{schedule}-{governance}")
    for anytime, schedule in ((True, "anytime"), (False, "monolithic"))
    for budget, governance in (
        (None, "ungoverned"),
        (ExecutionBudget.unlimited(), "unlimited"),
    )
]


def grouped_pairs(seeds):
    """Pairs from each seed's generator, grouped by (canonical) ``q1``."""
    groups: dict = {}
    for seed in seeds:
        gen = QueryGenerator(seed)
        q1, q2 = gen.containment_pair()
        candidates = [q2, q1] + [
            other.with_head(other.head[: q1.arity])
            for other in gen.queries(2)
            if other.arity >= q1.arity
        ]
        groups.setdefault(q1.canonical_key(), []).extend(
            (q1, q) for q in candidates
        )
    return [pair for group in groups.values() for pair in group]


def fields(result):
    return (
        result.contained,
        result.reason,
        result.witness_level,
        result.levels_chased,
    )


def assert_batch_matches_checks(pairs, anytime, budget, **batch_kwargs):
    batch = ContainmentChecker().check_all(
        pairs, anytime=anytime, budget=budget, **batch_kwargs
    )
    single = ContainmentChecker()
    expected = [
        single.check(q1, q2, anytime=anytime, budget=budget) for q1, q2 in pairs
    ]
    assert [fields(r) for r in batch] == [fields(r) for r in expected]
    assert not any(r.unknown for r in batch)


class TestBatchEqualsPerPairChecks:
    @pytest.mark.parametrize("anytime, budget", MODES)
    @SETTINGS
    @given(st.lists(st.integers(0, 10_000), min_size=1, max_size=3, unique=True))
    def test_random_groups(self, anytime, budget, seeds):
        try:
            assert_batch_matches_checks(grouped_pairs(seeds), anytime, budget)
        except ChaseBudgetExceeded:
            assume(False)

    @pytest.mark.parametrize("anytime, budget", MODES)
    def test_e10_corpus_on_the_pool(self, anytime, budget):
        pairs = [(q1, q2) for q1, q2, _, _ in PAPER_CONTAINMENT_PAIRS]
        gen = QueryGenerator(17)
        pairs += [gen.containment_pair() for _ in range(40)]
        assert_batch_matches_checks(
            pairs, anytime, budget, parallel=True, max_workers=2
        )
