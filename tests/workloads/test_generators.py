"""Unit tests for the workload generators and the paper corpus."""

import random

import pytest

from repro.analysis.cycles import has_mandatory_cycle
from repro import contained_classic, is_contained
from repro.core.atoms import P_FL_ARITIES
from repro.flogic.kb import KnowledgeBase
from repro.flogic.parser import parse_program
from repro.workloads import (
    EXAMPLE1_QUERY,
    EXAMPLE2_QUERY,
    PAPER_CONTAINMENT_PAIRS,
    PAPER_QUERIES,
    OntologyParams,
    QueryGenParams,
    QueryGenerator,
    generate_ontology,
    random_query,
    specialize,
)


class TestCorpus:
    def test_all_paper_queries_are_valid_pfl(self):
        for query in PAPER_QUERIES:
            query.validate_pfl()

    def test_pair_expectations_shape(self):
        for q1, q2, sigma, classic in PAPER_CONTAINMENT_PAIRS:
            assert q1.arity == q2.arity
            assert isinstance(sigma, bool) and isinstance(classic, bool)

    def test_example2_has_cycle(self):
        assert has_mandatory_cycle(EXAMPLE2_QUERY.body)

    def test_example1_sizes(self):
        assert EXAMPLE1_QUERY.size == 4
        assert EXAMPLE1_QUERY.arity == 2


class TestQueryGenerator:
    def test_deterministic_per_seed(self):
        assert QueryGenerator(3).queries(5) == QueryGenerator(3).queries(5)

    def test_different_seeds_differ(self):
        assert QueryGenerator(1).query() != QueryGenerator(2).query()

    def test_respects_atom_count(self):
        params = QueryGenParams(n_atoms=7, cycle_length=0)
        q = QueryGenerator(0, params).query()
        assert q.size == 7

    def test_bodies_are_valid_pfl(self):
        for seed in range(10):
            q = random_query(seed)
            q.validate_pfl()
            for atom in q.body:
                assert atom.arity == P_FL_ARITIES[atom.predicate]

    def test_head_arity_capped_by_variables(self):
        params = QueryGenParams(n_atoms=1, n_variables=1, head_arity=5)
        q = QueryGenerator(0, params).query()
        assert q.arity <= 1

    def test_planted_cycle_detected(self):
        q = random_query(4, cycle_length=2)
        assert has_mandatory_cycle(q.body)

    def test_no_cycle_when_not_requested(self):
        # mandatory+type coincidences are possible but rare with these params.
        params = QueryGenParams(
            n_atoms=4,
            cycle_length=0,
            predicate_weights={"member": 1.0, "sub": 1.0},
        )
        q = QueryGenerator(0, params).query()
        assert not has_mandatory_cycle(q.body)

    def test_queries_are_safe(self):
        for seed in range(10):
            q = random_query(seed)  # ConjunctiveQuery ctor enforces safety
            assert q.head_variables() <= q.variables()

    def test_containment_pair_same_arity(self):
        gen = QueryGenerator(9)
        for _ in range(10):
            q1, q2 = gen.containment_pair()
            assert q1.arity == q2.arity


class TestSpecialize:
    @pytest.mark.parametrize("seed", range(8))
    def test_specialisation_is_classically_contained(self, seed):
        rng = random.Random(seed)
        base = random_query(seed, n_atoms=3, head_arity=1)
        spec = specialize(base, rng=rng)
        assert contained_classic(spec, base).contained

    @pytest.mark.parametrize("seed", range(4))
    def test_specialisation_is_sigma_contained(self, seed):
        rng = random.Random(seed)
        base = random_query(seed, n_atoms=3, head_arity=1)
        spec = specialize(base, rng=rng)
        assert is_contained(spec, base).contained


class TestOntologyGenerator:
    def test_deterministic(self):
        assert generate_ontology(5).atoms == generate_ontology(5).atoms

    def test_all_facts_ground_pfl(self):
        ont = generate_ontology(1)
        for atom in ont.atoms:
            assert atom.is_ground
            assert atom.predicate in P_FL_ARITIES

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_kb_consistent(self, seed):
        ont = generate_ontology(seed)
        kb = KnowledgeBase()
        for atom in ont.atoms:
            kb.add(atom)
        assert kb.is_consistent()

    def test_flogic_rendering_reparses(self):
        ont = generate_ontology(2, OntologyParams(n_classes=3, n_objects=3))
        program = parse_program(ont.to_flogic())
        assert len(program.facts()) == len(ont.atoms)

    def test_subclass_graph_acyclic(self):
        ont = generate_ontology(3)
        edges = [
            (str(a.args[0]), str(a.args[1]))
            for a in ont.atoms
            if a.predicate == "sub"
        ]
        import networkx as nx

        graph = nx.DiGraph(edges)
        assert nx.is_directed_acyclic_graph(graph)

    def test_params_respected(self):
        params = OntologyParams(n_classes=4, n_objects=2, n_attributes=3)
        ont = generate_ontology(0, params)
        assert len(ont.classes) == 4
        assert len(ont.objects) == 2
        assert len(ont.attributes) == 3
