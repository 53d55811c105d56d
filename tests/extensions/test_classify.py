"""Unit tests for query classification (taxonomies)."""

import pytest

from repro.core.atoms import member, sub, type_
from repro.core.errors import QueryError
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Variable
from repro.extensions.classify import Taxonomy, are_equivalent, classify_queries

O, C, D, D2, A, T = (Variable(n) for n in "O C D D2 A T".split())

members = ConjunctiveQuery("members", (O, C), (member(O, C),))
sub_members = ConjunctiveQuery("sub_members", (O, C), (member(O, D), sub(D, C)))
sub_members_renamed = ConjunctiveQuery(
    "sub_members_renamed", (O, C), (member(O, D2), sub(D2, C))
)
# Redundant variant: equivalent to sub_members only under Sigma_FL (rho3).
sub_members_redundant = ConjunctiveQuery(
    "sub_members_redundant", (O, C), (member(O, D), sub(D, C), member(O, C))
)
typed_members = ConjunctiveQuery(
    "typed_members", (O, C), (member(O, C), type_(C, A, T))
)
subclass_pairs = ConjunctiveQuery("subclass_pairs", (O, C), (sub(O, C),))

ALL = [
    members,
    sub_members,
    sub_members_renamed,
    sub_members_redundant,
    typed_members,
    subclass_pairs,
]


class TestAreEquivalent:
    def test_renaming_equivalent(self):
        assert are_equivalent(sub_members, sub_members_renamed)

    def test_sigma_only_equivalence(self):
        """Equivalent only because rho_3 derives the redundant conjunct."""
        from repro import contained_classic

        assert are_equivalent(sub_members, sub_members_redundant)
        assert not contained_classic(sub_members, sub_members_redundant).contained

    def test_strict_containment_not_equivalent(self):
        assert not are_equivalent(sub_members, members)


class TestClassify:
    @pytest.fixture(scope="class")
    def taxonomy(self) -> Taxonomy:
        return classify_queries(ALL)

    def test_equivalence_classes(self, taxonomy):
        cls = taxonomy.class_of(sub_members)
        names = {q.name for q in taxonomy.classes[cls]}
        assert names == {
            "sub_members",
            "sub_members_renamed",
            "sub_members_redundant",
        }

    def test_direct_subsumptions(self, taxonomy):
        supers = {q.name for q in taxonomy.subsumers(sub_members)}
        assert supers == {"members"}
        subs = {q.name for q in taxonomy.subsumees(members)}
        assert "sub_members" in subs and "typed_members" in subs

    def test_roots_are_most_general(self, taxonomy):
        roots = {q.name for q in taxonomy.roots()}
        assert "members" in roots
        assert "subclass_pairs" in roots  # incomparable with the rest
        assert "sub_members" not in roots

    def test_hasse_has_no_transitive_edges(self, taxonomy):
        import networkx as nx

        graph = taxonomy.to_networkx()
        reduced = nx.transitive_reduction(graph)
        assert set(graph.edges()) == set(reduced.edges())

    def test_pretty_output(self, taxonomy):
        text = taxonomy.pretty()
        assert "≡" in text and "⊑" in text and "(most general)" in text

    def test_empty_input(self):
        taxonomy = classify_queries([])
        assert taxonomy.classes == [] and taxonomy.edges == []

    def test_single_query(self):
        taxonomy = classify_queries([members])
        assert len(taxonomy.classes) == 1
        assert taxonomy.roots() == [members]

    def test_arity_mismatch_rejected(self):
        boolean = ConjunctiveQuery("b", (), (member(O, C),))
        with pytest.raises(QueryError):
            classify_queries([members, boolean])

    def test_class_of_unknown_raises(self, taxonomy):
        other = ConjunctiveQuery("other", (O, C), (type_(O, A, C),))
        with pytest.raises(KeyError):
            taxonomy.class_of(other)
