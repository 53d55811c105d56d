"""Property-based tests for containment semantics.

The most important one is *soundness against evaluation*: whenever the
checker says ``q1 ⊆_Sigma q2``, evaluating both queries over an actual
Sigma_FL-closed database must give ``q1(B) ⊆ q2(B)``.  Databases are
random generated ontologies without mandatory attributes (so that the
Sigma_FL closure is finite and the materialisation is a *complete* legal
database, not a truncated one).
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import contained_classic, is_contained
from repro.core.errors import ChaseBudgetExceeded
from repro.flogic.kb import KnowledgeBase
from repro.homomorphism.search import all_homomorphisms
from repro.workloads import OntologyParams, QueryGenerator, generate_ontology, specialize

from .strategies import conjunctive_queries

SETTINGS = settings(max_examples=25, deadline=None)


def checked(q1, q2):
    try:
        return is_contained(q1, q2)
    except ChaseBudgetExceeded:
        assume(False)


class TestAlgebraicLaws:
    @SETTINGS
    @given(conjunctive_queries(max_atoms=4))
    def test_reflexivity(self, query):
        assert checked(query, query).contained

    @SETTINGS
    @given(conjunctive_queries(max_atoms=3), st.integers(0, 1000))
    def test_classic_implies_sigma(self, query, seed):
        rng = random.Random(seed)
        spec = specialize(query, rng=rng)
        if contained_classic(spec, query).contained:
            assert checked(spec, query).contained

    @SETTINGS
    @given(conjunctive_queries(max_atoms=3), st.integers(0, 1000))
    def test_specialisation_contained(self, query, seed):
        rng = random.Random(seed)
        spec = specialize(query, rng=rng)
        assert checked(spec, query).contained

    @SETTINGS
    @given(conjunctive_queries(max_atoms=3), st.integers(0, 500))
    def test_transitivity_spot_check(self, query, seed):
        rng = random.Random(seed)
        mid = specialize(query, rng=rng)
        low = specialize(mid, rng=rng)
        # low ⊆ mid ⊆ query by construction; check low ⊆ query directly.
        assert checked(low, query).contained


class TestSoundnessAgainstEvaluation:
    """is_contained verdicts must agree with evaluation on real databases."""

    def _evaluate(self, query, index):
        return {
            tuple(sigma.apply_term(t) for t in query.head)
            for sigma in all_homomorphisms(query, index)
        }

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    def test_positive_verdicts_sound_on_random_databases(self, pair_seed, db_seed):
        gen = QueryGenerator(pair_seed)
        q1, q2 = gen.containment_pair()
        result = checked(q1, q2)
        assume(result.contained)
        # A finite, complete Sigma_FL database: no mandatory attributes.
        ontology = generate_ontology(
            db_seed,
            OntologyParams(mandatory_probability=0.0, n_classes=5, n_objects=6),
        )
        kb = KnowledgeBase()
        for atom in ontology.atoms:
            kb.add(atom)
        assume(kb.is_consistent())
        index = kb.materialise()
        answers1 = self._evaluate(q1, index)
        answers2 = self._evaluate(q2, index)
        assert answers1 <= answers2, (
            f"containment verdict unsound: {q1} vs {q2} on seed {db_seed}"
        )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_paper_pairs_sound_on_random_databases(self, db_seed):
        from repro.workloads import PAPER_CONTAINMENT_PAIRS

        ontology = generate_ontology(
            db_seed,
            OntologyParams(mandatory_probability=0.0, n_classes=5, n_objects=6),
        )
        kb = KnowledgeBase()
        for atom in ontology.atoms:
            kb.add(atom)
        assume(kb.is_consistent())
        index = kb.materialise()
        for q1, q2, expected, _ in PAPER_CONTAINMENT_PAIRS:
            if expected:
                assert self._evaluate(q1, index) <= self._evaluate(q2, index)
