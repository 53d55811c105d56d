"""Unit tests for the Theorem-12 bounded-chase containment checker."""

import pytest

from repro import (
    ContainmentChecker,
    ContainmentReason,
    contained_classic,
    is_contained,
    theorem12_bound,
)
from repro.core.atoms import data, funct, mandatory, member, sub, type_
from repro.core.errors import QueryError
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable

A, B, T, U, O, C, X, Y, Z, W = (Variable(n) for n in "A B T U O C X Y Z W".split())


class TestBoundFormula:
    def test_theorem12_bound(self):
        q1 = ConjunctiveQuery("q1", (), (member(O, C), sub(C, U)))
        q2 = ConjunctiveQuery("q2", (), (member(O, C), member(O, U), sub(C, U)))
        assert theorem12_bound(q1, q2) == 3 * 2 * 2

    def test_delta_exposed_on_result(self):
        q = ConjunctiveQuery("q", (), (member(O, C),))
        result = is_contained(q, q)
        assert result.delta == 2


class TestPaperContainments:
    def test_joinable(self, joinable_pair):
        q, qq = joinable_pair
        assert is_contained(q, qq).contained
        assert not is_contained(qq, q).contained

    def test_mandatory(self, mandatory_pair):
        q, qq = mandatory_pair
        result = is_contained(q, qq)
        assert result.contained
        assert result.reason is ContainmentReason.HOMOMORPHISM
        assert not is_contained(qq, q).contained

    def test_witness_maps_to_invented_value(self, mandatory_pair):
        """The witness must bind qq's W to the null rho_5 invented."""
        q, qq = mandatory_pair
        result = is_contained(q, qq)
        bound_w = result.witness[Variable("W")]
        assert bound_w.is_null


class TestConstraintSpecificBehaviour:
    def test_rho7_containment(self):
        """type inherited through sub: needs rho7, invisible classically.

        q2 joins the signature with a membership on the *same* class, so
        the classic homomorphism cannot slide C up to the superclass —
        only the rho_7-derived conjunct satisfies it.
        """
        q1 = ConjunctiveQuery(
            "q1", (A,), (sub(C, U), type_(U, A, T), member(O, C))
        )
        q2 = ConjunctiveQuery("q2", (A,), (type_(C, A, T), member(O, C)))
        assert is_contained(q1, q2).contained
        assert not contained_classic(q1, q2).contained

    def test_rho2_transitivity_containment(self):
        q1 = ConjunctiveQuery("q1", (X,), (sub(X, Y), sub(Y, Z)))
        q2 = ConjunctiveQuery("q2", (X,), (sub(X, Z),))
        assert is_contained(q1, q2).contained

    def test_rho1_type_correctness_containment(self):
        q1 = ConjunctiveQuery("q1", (V := Variable("V"),), (type_(O, A, T), data(O, A, V)))
        q2 = ConjunctiveQuery("q2", (V,), (member(V, T2 := Variable("T2")),))
        assert is_contained(q1, q2).contained

    def test_egd_enables_containment(self):
        """Example-1 style: functionality makes q's two values one."""
        q1 = ConjunctiveQuery(
            "q1",
            (Variable("V1"), Variable("V2")),
            (
                data(O, A, Variable("V1")),
                data(O, A, Variable("V2")),
                funct(A, O),
            ),
        )
        q2 = ConjunctiveQuery(
            "q2",
            (Variable("V"), Variable("V")),
            (data(O, A, Variable("V")),),
        )
        assert is_contained(q1, q2).contained
        assert not contained_classic(q1, q2).contained

    def test_vacuous_containment_on_chase_failure(self):
        q1 = ConjunctiveQuery(
            "q1",
            (),
            (
                data(O, A, Constant("red")),
                data(O, A, Constant("blue")),
                funct(A, O),
            ),
        )
        q2 = ConjunctiveQuery("q2", (), (sub(X, Y),))
        result = is_contained(q1, q2)
        assert result.contained
        assert result.reason is ContainmentReason.CHASE_FAILURE
        assert "unsatisfiable" in result.explain() or "no answers" in result.explain()

    def test_cyclic_q1_decidable(self, example2_query):
        """Containment remains decidable when chase(q1) is infinite."""
        q2 = ConjunctiveQuery("q2", (), (data(X, A, Y), data(Y, A, Z)))
        result = is_contained(example2_query, q2)
        assert result.contained  # the chain provides consecutive data hops

    def test_cyclic_q1_negative_case(self, example2_query):
        q2 = ConjunctiveQuery("q2", (), (funct(A, O),))
        assert not is_contained(example2_query, q2).contained


class TestCheckerMechanics:
    def test_arity_mismatch_raises(self):
        q1 = ConjunctiveQuery("q1", (X,), (member(X, Y),))
        q2 = ConjunctiveQuery("q2", (X, Y), (member(X, Y),))
        with pytest.raises(QueryError):
            is_contained(q1, q2)

    def test_level_bound_override(self, example2_query):
        q2 = ConjunctiveQuery("q2", (), (data(X, A, Y), data(Y, A, Z)))
        small = is_contained(example2_query, q2, level_bound=1)
        full = is_contained(example2_query, q2)
        # At bound 1 the second data hop does not exist yet.
        assert not small.contained
        assert full.contained

    def test_chase_cache_reused(self, joinable_pair):
        q, qq = joinable_pair
        checker = ContainmentChecker()
        first = checker.check(q, qq)
        second = checker.check(q, qq)
        assert first.chase_result is second.chase_result

    def test_saturated_cache_reused_across_bounds(self, joinable_pair):
        q, qq = joinable_pair
        checker = ContainmentChecker()
        r1 = checker.check(q, qq, level_bound=5)
        assert r1.chase_result.saturated
        r2 = checker.check(q, qq, level_bound=50)
        assert r2.chase_result is r1.chase_result

    def test_prefix_restriction_when_cached_bound_larger(self, example2_query):
        q2 = ConjunctiveQuery("q2", (), (data(X, A, Y), data(Y, A, Z)))
        checker = ContainmentChecker()
        big = checker.check(example2_query, q2, level_bound=10)
        assert big.contained
        small = checker.check(example2_query, q2, level_bound=1)
        assert not small.contained  # restricted to the 1-level prefix

    def test_elapsed_positive(self, joinable_pair):
        q, qq = joinable_pair
        assert is_contained(q, qq).elapsed_seconds >= 0

    def test_repr_and_explain(self, joinable_pair):
        q, qq = joinable_pair
        result = is_contained(q, qq)
        assert "⊆" in repr(result)
        assert "homomorphism" in result.explain()


class TestSoundnessRelationClassic:
    """Classic containment implies Sigma_FL containment (never the reverse)."""

    @pytest.mark.parametrize("seed", range(6))
    def test_classic_implies_sigma(self, seed):
        from repro.workloads import QueryGenerator

        gen = QueryGenerator(seed)
        q1, q2 = gen.containment_pair()
        if contained_classic(q1, q2).contained:
            assert is_contained(q1, q2).contained
