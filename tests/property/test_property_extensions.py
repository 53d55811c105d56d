"""Property-based tests for minimisation, unions and classification."""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import is_contained, minimize_query
from repro.core.errors import ChaseBudgetExceeded
from repro.extensions import UnionQuery, are_equivalent, ucq_contained
from repro.flogic.kb import KnowledgeBase
from repro.homomorphism.search import all_homomorphisms
from repro.workloads import OntologyParams, QueryGenerator, generate_ontology

from .strategies import conjunctive_queries

SETTINGS = settings(max_examples=20, deadline=None)


def _evaluate(query, index):
    return {
        tuple(sigma.apply_term(t) for t in query.head)
        for sigma in all_homomorphisms(query, index)
    }


class TestMinimizationProperties:
    @SETTINGS
    @given(conjunctive_queries(max_atoms=4))
    def test_minimised_equivalent_to_original(self, query):
        try:
            result = minimize_query(query)
        except ChaseBudgetExceeded:
            assume(False)
        assert are_equivalent(result.minimized, query)

    @SETTINGS
    @given(conjunctive_queries(max_atoms=4))
    def test_minimised_never_larger(self, query):
        try:
            result = minimize_query(query)
        except ChaseBudgetExceeded:
            assume(False)
        assert result.minimized.size <= query.size
        assert result.minimized.head == query.head

    @settings(max_examples=10, deadline=None)
    @given(conjunctive_queries(max_atoms=3), st.integers(0, 5000))
    def test_minimisation_preserves_answers_on_databases(self, query, db_seed):
        try:
            minimized = minimize_query(query).minimized
        except ChaseBudgetExceeded:
            assume(False)
        ontology = generate_ontology(
            db_seed,
            OntologyParams(mandatory_probability=0.0, n_classes=4, n_objects=5),
        )
        kb = KnowledgeBase()
        for atom in ontology.atoms:
            kb.add(atom)
        assume(kb.is_consistent())
        index = kb.materialise()
        assert _evaluate(query, index) == _evaluate(minimized, index)


class TestUnionProperties:
    @SETTINGS
    @given(st.integers(0, 5000))
    def test_cq_sides_agree_with_plain_checker(self, seed):
        gen = QueryGenerator(seed)
        q1, q2 = gen.containment_pair()
        try:
            plain = bool(is_contained(q1, q2))
            lifted = ucq_contained(q1, q2).contained
        except ChaseBudgetExceeded:
            assume(False)
        assert plain == lifted

    @SETTINGS
    @given(st.integers(0, 5000))
    def test_union_is_monotone_on_the_right(self, seed):
        """Adding a disjunct on the right never breaks containment."""
        gen = QueryGenerator(seed)
        q1, q2 = gen.containment_pair()
        extra = gen.query()
        if extra.arity != q2.arity:
            extra = extra.with_head(extra.head[: q2.arity])
            assume(extra.arity == q2.arity)
        try:
            base = ucq_contained(q1, q2).contained
            widened = ucq_contained(q1, UnionQuery("u", (q2, extra))).contained
        except ChaseBudgetExceeded:
            assume(False)
        if base:
            assert widened

    @SETTINGS
    @given(st.integers(0, 5000))
    def test_left_union_requires_all(self, seed):
        """u1 ⊆ q iff every disjunct of u1 is ⊆ q."""
        gen = QueryGenerator(seed)
        qa, q = gen.containment_pair()
        qb = gen.query()
        if qb.arity != q.arity:
            qb = qb.with_head(qb.head[: q.arity])
            assume(qb.arity == q.arity)
        try:
            union_result = ucq_contained(UnionQuery("u", (qa, qb)), q).contained
            individual = (
                ucq_contained(qa, q).contained and ucq_contained(qb, q).contained
            )
        except ChaseBudgetExceeded:
            assume(False)
        assert union_result == individual
