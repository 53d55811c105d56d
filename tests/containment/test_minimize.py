"""Unit tests for Sigma_FL-aware query minimisation."""

import pytest

from repro import ContainmentChecker, is_contained, minimize_query
from repro.core.atoms import data, member, sub, type_
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Variable

O, C, D, A, T, V, X, Y, Z = (Variable(n) for n in "O C D A T V X Y Z".split())


class TestMinimize:
    def test_rho3_redundancy_removed(self):
        q = ConjunctiveQuery(
            "q", (O,), (member(O, C), sub(C, D), member(O, D))
        )
        result = minimize_query(q)
        assert result.reduced
        assert result.minimized.size == 2
        assert member(O, D) in result.removed

    def test_rho2_redundancy_removed(self):
        q = ConjunctiveQuery("q", (X, Z), (sub(X, Y), sub(Y, Z), sub(X, Z)))
        result = minimize_query(q)
        assert result.minimized.size == 2
        assert sub(X, Z) in result.removed

    def test_minimal_query_untouched(self):
        q = ConjunctiveQuery("q", (A,), (type_(C, A, T), member(O, C)))
        result = minimize_query(q)
        assert not result.reduced
        assert result.minimized == q

    def test_classic_duplicate_atom_removed(self):
        """Plain CM redundancy (duplicate up to renaming) also goes."""
        q = ConjunctiveQuery(
            "q", (O,), (member(O, C), member(O, D))
        )
        result = minimize_query(q)
        assert result.minimized.size == 1

    def test_head_safety_preserved(self):
        """A conjunct carrying the only occurrence of a head var stays."""
        q = ConjunctiveQuery(
            "q", (V,), (data(O, A, V), member(O, C), sub(C, D), member(O, D))
        )
        result = minimize_query(q)
        assert data(O, A, V) in result.minimized.body
        assert result.minimized.head == (V,)

    def test_minimized_equivalent_to_original(self):
        q = ConjunctiveQuery(
            "q", (O,), (member(O, C), sub(C, D), member(O, D))
        )
        minimized = minimize_query(q).minimized
        assert is_contained(q, minimized).contained
        assert is_contained(minimized, q).contained

    def test_idempotent(self):
        q = ConjunctiveQuery(
            "q", (O,), (member(O, C), sub(C, D), member(O, D))
        )
        once = minimize_query(q).minimized
        twice = minimize_query(once)
        assert not twice.reduced

    def test_single_atom_query_never_emptied(self):
        q = ConjunctiveQuery("q", (O,), (member(O, C),))
        result = minimize_query(q)
        assert result.minimized.size == 1

    def test_shared_checker_reused(self):
        q = ConjunctiveQuery(
            "q", (O,), (member(O, C), sub(C, D), member(O, D))
        )
        checker = ContainmentChecker()
        result = minimize_query(q, checker=checker)
        assert result.reduced
        assert result.checks > 0

    def test_str_reports_reduction(self):
        q = ConjunctiveQuery(
            "q", (O,), (member(O, C), sub(C, D), member(O, D))
        )
        assert "->" in str(minimize_query(q))
        minimal = ConjunctiveQuery("p", (O,), (member(O, C),))
        assert "already minimal" in str(minimize_query(minimal))

    def test_cascading_removals(self):
        """Two independent redundancies are both removed."""
        q = ConjunctiveQuery(
            "q",
            (O,),
            (
                member(O, C),
                sub(C, D),
                member(O, D),       # rho3-redundant
                sub(C, Variable("E")),
                sub(D, Variable("E")),
            ),
        )
        result = minimize_query(q)
        assert member(O, D) not in result.minimized.body

    def test_store_stats_surfaced(self):
        """Minimisation reports the chase-store counter deltas its
        candidate checks accrued."""
        q = ConjunctiveQuery(
            "q", (O,), (member(O, C), sub(C, D), member(O, D))
        )
        result = minimize_query(q)
        assert set(result.store_stats) == {
            "hits", "misses", "extensions", "evictions", "live_entries",
            "snapshot_hits", "snapshot_stores",
        }
        assert result.store_stats["misses"] > 0  # at least one fresh chase

    def test_shared_checker_stats_are_deltas(self):
        from repro import ContainmentChecker

        checker = ContainmentChecker()
        q = ConjunctiveQuery("q", (O,), (member(O, C), sub(C, D), member(O, D)))
        first = minimize_query(q, checker=checker)
        second = minimize_query(q, checker=checker)
        # The second run replays the same candidates against a warm store:
        # it must not be charged the first run's misses.
        assert second.store_stats["misses"] <= first.store_stats["misses"]
        assert second.store_stats["hits"] >= first.store_stats["misses"]
