"""Unit tests for the shared chase store and the batch containment API."""

import pytest

from repro import ChaseStore, ContainmentChecker, StoreStats
from repro.containment.store import OUTCOME_EXTEND, OUTCOME_FULL, OUTCOME_HIT
from repro.core.atoms import data, member, sub
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable
from repro.workloads.corpus import (
    EXAMPLE2_QUERY,
    INTRO_JOINABLE_Q,
    INTRO_JOINABLE_QQ,
    PAPER_CONTAINMENT_PAIRS,
)

O, C, D, X, Y, Z, A = (Variable(n) for n in "O C D X Y Z A".split())
book, publication = Constant("book"), Constant("publication")

members = ConjunctiveQuery("members", (O, C), (member(O, C),))
sub_members = ConjunctiveQuery("sub_members", (O, C), (member(O, D), sub(D, C)))
renamed_sub_members = ConjunctiveQuery("rsm", (X, Y), (member(X, Z), sub(Z, Y)))


class TestChaseStore:
    def test_miss_then_hit(self):
        store = ChaseStore()
        run1, outcome1 = store.run_for(sub_members, 5)
        run2, outcome2 = store.run_for(sub_members, 5)
        assert outcome1 == OUTCOME_FULL and outcome2 == OUTCOME_HIT
        assert run1 is run2
        assert store.stats.misses == 1 and store.stats.hits == 1

    def test_open_returns_unchased_session(self):
        store = ChaseStore()
        run, outcome = store.open(sub_members, 5)
        assert outcome == OUTCOME_FULL
        assert run.bound == -1  # open never chases: the caller drives it
        assert store.stats.misses == 1

    def test_open_then_run_for_is_one_entry(self):
        store = ChaseStore()
        run1, _ = store.open(sub_members, 5)
        run1.extend_to(5)
        run2, outcome = store.run_for(sub_members, 5)
        assert run1 is run2 and outcome == OUTCOME_HIT
        assert len(store) == 1

    def test_open_counts_toward_lru_recency(self):
        store = ChaseStore(capacity=2)
        store.run_for(members, 2)
        store.run_for(sub_members, 2)
        store.open(members, 2)  # touch: members becomes most recent
        store.run_for(
            ConjunctiveQuery("third", (O,), (data(O, C, D),)), 2
        )
        assert members in store and sub_members not in store

    def test_larger_bound_extends_in_place(self):
        store = ChaseStore()
        run1, _ = store.run_for(EXAMPLE2_QUERY, 2)
        run2, outcome = store.run_for(EXAMPLE2_QUERY, 6)
        assert run1 is run2
        assert outcome == OUTCOME_EXTEND
        assert store.stats.extensions == 1
        assert run2.bound >= 6

    def test_smaller_bound_is_a_hit(self):
        store = ChaseStore()
        store.run_for(EXAMPLE2_QUERY, 6)
        _, outcome = store.run_for(EXAMPLE2_QUERY, 2)
        assert outcome == OUTCOME_HIT

    def test_alpha_equivalent_queries_share_one_run(self):
        store = ChaseStore()
        run1, _ = store.run_for(sub_members, 5)
        run2, outcome = store.run_for(renamed_sub_members, 5)
        assert run1 is run2 and outcome == OUTCOME_HIT
        assert len(store) == 1

    def test_lru_eviction(self):
        store = ChaseStore(capacity=1)
        store.run_for(members, 3)
        store.run_for(sub_members, 3)  # evicts members
        assert sub_members in store and members not in store
        assert store.stats.evictions == 1
        _, outcome = store.run_for(members, 3)  # must re-chase
        assert outcome == OUTCOME_FULL

    def test_lru_order_is_recency_not_insertion(self):
        store = ChaseStore(capacity=2)
        store.run_for(members, 3)
        store.run_for(sub_members, 3)
        store.run_for(members, 3)  # touch members: sub_members becomes LRU
        store.run_for(EXAMPLE2_QUERY, 2)  # evicts sub_members
        assert members in store and sub_members not in store

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ChaseStore(capacity=0)

    def test_unbounded_capacity(self):
        store = ChaseStore(capacity=None)
        for i, (q1, _, _, _) in enumerate(PAPER_CONTAINMENT_PAIRS):
            store.run_for(q1, 2)
        assert store.stats.evictions == 0

    def test_peek_has_no_counter_effects(self):
        store = ChaseStore()
        assert store.peek(members) is None
        run, _ = store.run_for(members, 3)
        before = store.stats.as_dict()
        assert store.peek(members) is run
        assert store.stats.as_dict() == before

    def test_clear_keeps_counters(self):
        store = ChaseStore()
        store.run_for(members, 3)
        store.clear()
        assert len(store) == 0 and store.stats.misses == 1

    def test_stats_str_and_repr(self):
        store = ChaseStore()
        store.run_for(members, 3)
        assert "1 full" in str(store.stats)
        assert "ChaseStore" in repr(store)

    def test_stats_derived_counts(self):
        stats = StoreStats(hits=2, misses=1, extensions=3, evictions=0)
        assert stats.requests == 6
        assert stats.reuses == 5
        assert stats.full_chases == 1


class TestStoreStatsObservability:
    def test_as_dict_str_round_trip(self):
        stats = StoreStats(hits=2, misses=1, extensions=3, evictions=4, live_entries=1)
        rebuilt = StoreStats(**stats.as_dict())
        assert rebuilt == stats
        assert rebuilt.as_dict() == stats.as_dict()
        text = str(rebuilt)
        # __str__ surfaces every counter the dict carries (live_entries is
        # a gauge, reported via the metrics registry instead).
        assert "6 chase requests" in text
        assert "1 full" in text and "3 extended" in text
        assert "2 hits" in text and "4 evictions" in text
        assert str(stats) == text

    def test_record_methods_mirror_into_registry(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        stats = StoreStats().bind(reg)
        stats.record_miss()
        stats.entry_added()
        stats.record_hit()
        stats.record_extension()
        counters = reg.as_dict()["counters"]
        assert counters["store.requests"] == {
            "outcome=miss": 1,
            "outcome=hit": 1,
            "outcome=extend": 1,
        }
        assert reg.as_dict()["gauges"]["store.live_entries"] == 1

    def test_eviction_decrements_live_entry_gauge(self):
        from repro.obs import MetricsRegistry, Observability

        obs = Observability(metrics=MetricsRegistry())
        store = ChaseStore(capacity=1, obs=obs)
        gauge = obs.metrics.gauge("store.live_entries")
        store.run_for(members, 3)
        assert gauge.value == 1 and store.stats.live_entries == 1
        store.run_for(sub_members, 3)  # evicts members
        assert store.stats.evictions == 1
        assert gauge.value == 1 and store.stats.live_entries == 1
        assert obs.metrics.as_dict()["counters"]["store.evictions"] == 1

    def test_clear_drops_live_entry_gauge_to_zero(self):
        from repro.obs import MetricsRegistry, Observability

        obs = Observability(metrics=MetricsRegistry())
        store = ChaseStore(obs=obs)
        store.run_for(members, 3)
        store.run_for(sub_members, 3)
        assert store.stats.live_entries == 2
        store.clear()
        assert store.stats.live_entries == 0
        assert obs.metrics.gauge("store.live_entries").value == 0
        assert store.stats.misses == 2  # counters survive the clear

    def test_unbound_store_keeps_plain_counters(self):
        store = ChaseStore()
        store.run_for(members, 3)
        assert store.stats.registry is None
        assert store.stats.live_entries == 1


class TestCheckerStoreIntegration:
    def test_chase_outcome_surfaced_on_results(self):
        checker = ContainmentChecker()
        first = checker.check(INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ)
        second = checker.check(INTRO_JOINABLE_Q, INTRO_JOINABLE_QQ)
        assert first.chase_outcome == OUTCOME_FULL
        assert second.chase_outcome == OUTCOME_HIT

    def test_rename_apart_q1_reuses_chase(self):
        checker = ContainmentChecker()
        checker.check(sub_members, members)
        result = checker.check(renamed_sub_members, members)
        assert result.chase_outcome == OUTCOME_HIT
        assert checker.stats.full_chases == 1

    def test_shared_store_across_checkers(self):
        store = ChaseStore()
        a = ContainmentChecker(store=store)
        b = ContainmentChecker(store=store)
        a.check(sub_members, members)
        result = b.check(sub_members, members)
        assert result.chase_outcome == OUTCOME_HIT

    def test_growing_bound_extends_not_rechases(self):
        checker = ContainmentChecker()
        q2 = ConjunctiveQuery("q2", (), (data(X, A, Y), data(Y, A, Z)))
        checker.check(EXAMPLE2_QUERY, q2, level_bound=2)
        grown = checker.check(EXAMPLE2_QUERY, q2, level_bound=8)
        assert grown.chase_outcome == OUTCOME_EXTEND
        assert checker.stats.full_chases == 1


class TestCheckAll:
    def test_matches_per_pair_check(self):
        pairs = [(q1, q2) for q1, q2, _, _ in PAPER_CONTAINMENT_PAIRS]
        batch = ContainmentChecker().check_all(pairs)
        for (q1, q2, expected, _), result in zip(PAPER_CONTAINMENT_PAIRS, batch):
            solo = ContainmentChecker().check(q1, q2)
            assert result.contained == solo.contained == expected

    def test_results_in_input_order(self):
        pairs = [(sub_members, members), (members, sub_members)]
        results = ContainmentChecker().check_all(pairs)
        assert results[0].q2.name == "members"
        assert results[1].q2.name == "sub_members"

    def test_one_chase_per_distinct_q1(self):
        checker = ContainmentChecker()
        pairs = [
            (sub_members, members),
            (renamed_sub_members, members),  # alpha-equivalent to sub_members
            (sub_members, sub_members),
            (members, members),
        ]
        results = checker.check_all(pairs)
        assert all(r.contained for r in results)
        assert checker.stats.full_chases == 2  # sub_members (shared) + members

    def test_group_chased_to_max_bound_once(self):
        checker = ContainmentChecker()
        small_q2 = ConjunctiveQuery("s", (O, C), (member(O, C),))
        big_q2 = ConjunctiveQuery(
            "b", (O, C), (member(O, C), member(O, D), sub(D, C))
        )
        checker.check_all([(sub_members, small_q2), (sub_members, big_q2)])
        assert checker.stats.full_chases == 1
        assert checker.stats.extensions == 0

    def test_pair_bound_still_restricts_prefix(self):
        """Group-level chasing to the max bound must not leak deeper
        levels into a pair that asked for a smaller bound."""
        checker = ContainmentChecker()
        q2 = ConjunctiveQuery("q2", (), (data(X, A, Y), data(Y, A, Z)))
        # The chase is stored at bound 10 first; the level-1 check must
        # still be answered against the 1-level prefix view only.
        deep = checker.check(EXAMPLE2_QUERY, q2, level_bound=10)
        shallow = checker.check(EXAMPLE2_QUERY, q2, level_bound=1)
        assert deep.contained and not shallow.contained
        assert shallow.chase_outcome == OUTCOME_HIT

    def test_empty_batch(self):
        assert ContainmentChecker().check_all([]) == []

    def test_arity_mismatch_raises(self):
        from repro.core.errors import QueryError

        boolean = ConjunctiveQuery("b", (), (member(O, C),))
        with pytest.raises(QueryError):
            ContainmentChecker().check_all([(members, boolean)])


class TestSchemaCacheIsolation:
    B = Variable("B")
    books = ConjunctiveQuery("books", (B,), (member(B, book),))
    pubs = ConjunctiveQuery("pubs", (B,), (member(B, publication),))
    SCHEMA = (sub(book, publication),)

    def test_different_schemas_do_not_cross_contaminate(self):
        checker = ContainmentChecker()
        with_schema = checker.check(self.books, self.pubs, schema=self.SCHEMA)
        without = checker.check(self.books, self.pubs)
        again_with = checker.check(self.books, self.pubs, schema=self.SCHEMA)
        again_without = checker.check(self.books, self.pubs)
        assert with_schema.contained and again_with.contained
        assert not without.contained and not again_without.contained

    def test_schema_variants_are_distinct_cache_entries(self):
        checker = ContainmentChecker()
        other_schema = (sub(Constant("car"), Constant("vehicle")),)
        checker.check(self.books, self.pubs, schema=self.SCHEMA)
        r2 = checker.check(self.books, self.pubs, schema=other_schema)
        assert not r2.contained
        assert checker.stats.full_chases == 2

    def test_repeated_same_schema_hits_cache(self):
        checker = ContainmentChecker()
        checker.check(self.books, self.pubs, schema=self.SCHEMA)
        repeat = checker.check(self.books, self.pubs, schema=self.SCHEMA)
        assert repeat.chase_outcome == OUTCOME_HIT

    def test_check_all_respects_schema(self):
        checker = ContainmentChecker()
        with_schema = checker.check_all(
            [(self.books, self.pubs)], schema=self.SCHEMA
        )[0]
        without = checker.check_all([(self.books, self.pubs)])[0]
        assert with_schema.contained and not without.contained
