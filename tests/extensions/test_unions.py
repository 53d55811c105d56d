"""Unit tests for UCQ containment."""

import pytest

from repro.core.atoms import member, sub, type_
from repro.core.errors import QueryError
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Variable
from repro.extensions.unions import UnionQuery, ucq_contained

O, C, D, A, T = (Variable(n) for n in "O C D A T".split())

members = ConjunctiveQuery("members", (O, C), (member(O, C),))
sub_members = ConjunctiveQuery("sub_members", (O, C), (member(O, D), sub(D, C)))
typed = ConjunctiveQuery("typed", (O, C), (member(O, C), type_(C, A, T)))
subclasses = ConjunctiveQuery("subclasses", (O, C), (sub(O, C),))


class TestUnionQuery:
    def test_construction(self):
        union = UnionQuery("u", (members, typed))
        assert len(union) == 2 and union.arity == 2

    def test_empty_rejected(self):
        with pytest.raises(QueryError):
            UnionQuery("u", ())

    def test_mixed_arity_rejected(self):
        boolean = ConjunctiveQuery("b", (), (member(O, C),))
        with pytest.raises(QueryError):
            UnionQuery("u", (members, boolean))

    def test_wrap_cq(self):
        union = UnionQuery.wrap(members)
        assert len(union) == 1

    def test_wrap_union_identity(self):
        union = UnionQuery("u", (members,))
        assert UnionQuery.wrap(union) is union

    def test_str(self):
        assert "UNION" in str(UnionQuery("u", (members, typed)))

    def test_immutable(self):
        union = UnionQuery("u", (members,))
        with pytest.raises(AttributeError):
            union.name = "v"  # type: ignore[misc]


class TestUCQContainment:
    def test_each_disjunct_needs_cover(self):
        u1 = UnionQuery("u1", (sub_members, typed))
        result = ucq_contained(u1, members)
        assert result.contained
        assert result.uncovered() == []

    def test_uncovered_disjunct_fails(self):
        u1 = UnionQuery("u1", (sub_members, subclasses))
        result = ucq_contained(u1, members)
        assert not result.contained
        assert result.uncovered() == ["subclasses"]

    def test_superset_union_on_the_right(self):
        u2 = UnionQuery("u2", (subclasses, members))
        assert ucq_contained(sub_members, u2).contained
        assert ucq_contained(subclasses, u2).contained

    def test_right_union_needs_only_one_cover_per_disjunct(self):
        u1 = UnionQuery("u1", (typed, subclasses))
        u2 = UnionQuery("u2", (members, subclasses))
        result = ucq_contained(u1, u2)
        assert result.contained
        assert result.coverage["typed"][0] == "members"
        assert result.coverage["subclasses"][0] == "subclasses"

    def test_cq_on_both_sides_matches_plain_checker(self):
        from repro import is_contained

        assert ucq_contained(sub_members, members).contained == bool(
            is_contained(sub_members, members)
        )
        assert ucq_contained(members, sub_members).contained == bool(
            is_contained(members, sub_members)
        )

    def test_arity_mismatch_raises(self):
        boolean = ConjunctiveQuery("b", (), (member(O, C),))
        with pytest.raises(QueryError):
            ucq_contained(members, boolean)

    def test_explain_lists_coverage(self):
        u1 = UnionQuery("u1", (sub_members, subclasses))
        text = ucq_contained(u1, members).explain()
        assert "NOT covered" in text and "covered by members" in text

    def test_union_reflexivity(self):
        u = UnionQuery("u", (members, typed, subclasses))
        assert ucq_contained(u, u).contained

    def test_sigma_specific_union_containment(self):
        """Only rho_3 makes the sub_members disjunct collapse into members."""
        from repro import contained_classic

        assert not contained_classic(sub_members, members).contained
        assert ucq_contained(UnionQuery("u", (sub_members,)), members).contained
