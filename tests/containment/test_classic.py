"""Unit tests for classic (Chandra–Merlin) containment."""

from repro import ContainmentReason, contained_classic
from repro.core.atoms import data, member, sub
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")
a = Constant("a")


class TestClassicContainment:
    def test_reflexive(self, simple_cq):
        assert contained_classic(simple_cq, simple_cq).contained

    def test_adding_atoms_specialises(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, Y), sub(Y, Z)))
        q2 = ConjunctiveQuery("q2", (X,), (member(X, Y),))
        result = contained_classic(q1, q2)
        assert result.contained
        assert result.reason is ContainmentReason.HOMOMORPHISM
        assert result.witness is not None
        assert not contained_classic(q2, q1).contained

    def test_renamed_queries_equivalent(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, Y),))
        q2 = ConjunctiveQuery("q2", (Z,), (member(Z, W),))
        assert contained_classic(q1, q2).contained
        assert contained_classic(q2, q1).contained

    def test_identifying_variables_specialises(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, X),))
        q2 = ConjunctiveQuery("q2", (X,), (member(X, Y),))
        assert contained_classic(q1, q2).contained
        assert not contained_classic(q2, q1).contained

    def test_constants_specialise_variables(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, a),))
        q2 = ConjunctiveQuery("q2", (X,), (member(X, Y),))
        assert contained_classic(q1, q2).contained
        assert not contained_classic(q2, q1).contained

    def test_different_predicates_incomparable(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, Y),))
        q2 = ConjunctiveQuery("q2", (X,), (sub(X, Y),))
        assert not contained_classic(q1, q2).contained
        assert not contained_classic(q2, q1).contained

    def test_cyclic_into_acyclic(self):
        """member cycle of length 2 is contained in a length-2 path query."""
        q_cycle = ConjunctiveQuery("qc", (), (member(X, Y), member(Y, X)))
        q_path = ConjunctiveQuery("qp", (), (member(X, Y), member(Y, Z)))
        assert contained_classic(q_cycle, q_path).contained
        assert not contained_classic(q_path, q_cycle).contained

    def test_result_explain_text(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, Y),))
        q2 = ConjunctiveQuery("q2", (X,), (member(X, Y),))
        result = contained_classic(q1, q2)
        assert "q1" in result.explain() and "⊆" in result.explain()

    def test_negative_result_has_no_witness(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, Y),))
        q2 = ConjunctiveQuery("q2", (X,), (member(X, a),))
        result = contained_classic(q1, q2)
        assert not result.contained
        assert result.witness is None
        assert result.reason is ContainmentReason.NO_HOMOMORPHISM

    def test_bool_protocol(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, Y),))
        assert bool(contained_classic(q1, q1))

    def test_paper_pairs_all_fail_classically(self, joinable_pair, mandatory_pair):
        for q1, q2 in (joinable_pair, mandatory_pair):
            assert not contained_classic(q1, q2).contained
