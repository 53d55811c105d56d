"""Unit tests for the RDF/SPARQL bridge."""

import pytest

from repro import contained_classic, is_contained
from repro.core.atoms import data, member, sub, type_
from repro.core.errors import EncodingError
from repro.core.terms import Constant, Variable
from repro.flogic.kb import KnowledgeBase
from repro.rdf import (
    RDFS_RESOURCE,
    BGPQuery,
    Graph,
    Triple,
    TriplePattern,
    encode_bgp,
    encode_graph,
    encode_pattern,
    encode_triple,
    term,
)

j, s, p = Constant("john"), Constant("student"), Constant("person")


class TestTermCoercion:
    def test_question_mark_is_variable(self):
        assert term("?x") == Variable("x")

    def test_plain_string_is_constant(self):
        assert term("john") == Constant("john")

    def test_terms_pass_through(self):
        x = Variable("x")
        assert term(x) is x


class TestTripleEncoding:
    def test_rdf_type(self):
        got = encode_triple(Triple("john", "rdf:type", "student"))
        assert got == (member(j, s),)

    def test_subclassof(self):
        got = encode_triple(Triple("student", "rdfs:subClassOf", "person"))
        assert got == (sub(s, p),)

    def test_range(self):
        got = encode_triple(Triple("age", "rdfs:range", "number"))
        assert got == (type_(RDFS_RESOURCE, Constant("age"), Constant("number")),)

    def test_domain(self):
        got = encode_triple(Triple("age", "rdfs:domain", "person"))
        assert got == (type_(p, Constant("age"), RDFS_RESOURCE),)

    def test_plain_triple_is_data(self):
        got = encode_triple(Triple("john", "age", "33"))
        assert got == (data(j, Constant("age"), Constant("33")),)


class TestGraphEncoding:
    def test_universal_membership_added(self):
        g = Graph().add("john", "age", "33")
        atoms = encode_graph(g)
        assert member(j, RDFS_RESOURCE) in atoms
        assert member(Constant("33"), RDFS_RESOURCE) in atoms

    def test_universal_membership_optional(self):
        g = Graph().add("john", "age", "33")
        atoms = encode_graph(g, universal_membership=False)
        assert all(a.predicate != "member" for a in atoms)

    def test_schema_triples_do_not_create_entities(self):
        g = Graph().add("student", "rdfs:subClassOf", "person")
        atoms = encode_graph(g)
        assert all(a.predicate != "member" for a in atoms)

    def test_deterministic_order(self):
        g1 = Graph().add("a", "p", "b").add("c", "p", "d")
        g2 = Graph().add("c", "p", "d").add("a", "p", "b")
        assert encode_graph(g1) == encode_graph(g2)

    def test_range_entailment_through_kb(self):
        """age rdfs:range number + john age 33 |= 33 rdf:type number."""
        g = (
            Graph()
            .add("age", "rdfs:range", "number")
            .add("john", "age", "33")
        )
        kb = KnowledgeBase()
        for atom in encode_graph(g):
            kb.add(atom)
        assert kb.holds("?- 33:number.")


class TestPatternEncoding:
    def test_variable_predicate_reads_as_data(self):
        pattern = TriplePattern(term("?s"), term("?p"), term("?o"))
        got = encode_pattern(pattern)
        assert got[0].predicate == "data"

    def test_type_pattern(self):
        pattern = TriplePattern(term("?x"), term("rdf:type"), term("?c"))
        assert encode_pattern(pattern)[0].predicate == "member"

    def test_bgp_encoding_carries_projection(self):
        x = Variable("x")
        bgp = BGPQuery("q", (x,), (TriplePattern(x, term("rdf:type"), term("person")),))
        cq = encode_bgp(bgp)
        assert cq.head == (x,)
        assert cq.body == (member(x, p),)

    def test_empty_bgp_rejected(self):
        with pytest.raises(EncodingError):
            encode_bgp(BGPQuery("q", (), ()))


class TestBGPContainment:
    def test_subclass_members_contained_in_class_members(self):
        x, c, d = Variable("x"), Variable("c"), Variable("d")
        q1 = encode_bgp(
            BGPQuery(
                "q1",
                (x, c),
                (
                    TriplePattern(x, term("rdf:type"), d),
                    TriplePattern(d, term("rdfs:subClassOf"), c),
                ),
            )
        )
        q2 = encode_bgp(
            BGPQuery("q2", (x, c), (TriplePattern(x, term("rdf:type"), c),))
        )
        assert is_contained(q1, q2).contained
        assert not contained_classic(q1, q2).contained
        assert not is_contained(q2, q1).contained

    def test_display_forms(self):
        x = Variable("x")
        bgp = BGPQuery("q", (x,), (TriplePattern(x, term("rdf:type"), term("c")),))
        assert "SELECT ?x" in str(bgp)
        assert "rdf:type" in str(bgp.patterns[0])
