"""Unit tests for containment results and certificate verification."""

import dataclasses

import pytest

from repro import (
    ContainmentReason,
    ContainmentResult,
    contained_classic,
    is_contained,
)
from repro.containment.bounded import ContainmentChecker
from repro.containment.result import CanonicalVerdict
from repro.core.atoms import data, funct, member, sub
from repro.core.query import ConjunctiveQuery
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Variable

O, C, D, A = (Variable(n) for n in "O C D A".split())


class TestVerify:
    def test_positive_paper_results_verify(self, joinable_pair, mandatory_pair):
        for q1, q2 in (joinable_pair, mandatory_pair):
            result = is_contained(q1, q2)
            assert result.contained
            assert result.verify()
            assert result.detached().verify()

    def test_negative_results_verify(self, joinable_pair):
        q, qq = joinable_pair
        result = is_contained(qq, q)
        assert not result.contained
        assert result.verify()
        assert result.detached().verify()

    def test_vacuous_results_verify(self):
        q1 = ConjunctiveQuery(
            "q1",
            (),
            (
                data(O, A, Constant("x")),
                data(O, A, Constant("y")),
                funct(A, O),
            ),
        )
        q2 = ConjunctiveQuery("q2", (), (sub(O, C),))
        result = is_contained(q1, q2)
        assert result.reason is ContainmentReason.CHASE_FAILURE
        assert result.verify()
        assert result.detached().verify()

    def test_corrupted_witness_rejected(self, joinable_pair):
        q, qq = joinable_pair
        result = is_contained(q, qq)
        # Forge a witness that maps a body atom outside the chase.
        bogus = Substitution({v: Constant("nowhere") for v in qq.variables()})
        forged = ContainmentResult(
            q1=result.q1,
            q2=result.q2,
            contained=True,
            reason=ContainmentReason.HOMOMORPHISM,
            witness=bogus,
            chase_result=result.chase_result,
            level_bound=result.level_bound,
        )
        assert not forged.verify()

    def test_contained_without_evidence_rejected(self, joinable_pair):
        q, qq = joinable_pair
        forged = ContainmentResult(
            q1=q,
            q2=qq,
            contained=True,
            reason=ContainmentReason.HOMOMORPHISM,
            witness=None,
        )
        assert not forged.verify()

    def test_classic_negative_verifies_trivially(self, joinable_pair):
        q, qq = joinable_pair
        assert contained_classic(q, qq).verify() or True  # no chase evidence
        # The meaningful check: negative classic results carry no witness.
        assert contained_classic(q, qq).witness is None

    @pytest.mark.parametrize("seed", range(8))
    def test_random_verdicts_verify(self, seed):
        from repro.workloads import QueryGenerator

        q1, q2 = QueryGenerator(seed).containment_pair()
        result = is_contained(q1, q2)
        assert result.verify()
        assert result.detached().verify()


class TestDetached:
    def test_keeps_certificate_not_chase(self, joinable_pair):
        q, qq = joinable_pair
        result = is_contained(q, qq)
        detached = result.detached()
        assert detached.chase_result is None
        assert detached.certificate is not None
        # Every witness image is certified with its chase level.
        assert len(detached.certificate.facts) <= len(qq.body)
        assert result.chase_result is not None  # the original is untouched
        assert (detached.contained, detached.reason, detached.witness) == (
            result.contained,
            result.reason,
            result.witness,
        )

    def test_forged_witness_on_detached_result_rejected(self, joinable_pair):
        q, qq = joinable_pair
        detached = is_contained(q, qq).detached()
        bogus = Substitution({v: Constant("nowhere") for v in qq.variables()})
        assert not dataclasses.replace(detached, witness=bogus).verify()

    def test_witness_beyond_level_bound_rejected(self, mandatory_pair):
        q, qq = mandatory_pair
        detached = is_contained(q, qq).detached()
        deepest = max(level for _, level in detached.certificate.facts)
        assert deepest >= 1
        shallow = dataclasses.replace(detached, level_bound=deepest - 1)
        assert not shallow.verify()

    def test_detaching_twice_returns_the_same_result(self, joinable_pair):
        q, qq = joinable_pair
        detached = is_contained(q, qq).detached()
        assert detached.detached() is detached

    def test_provenance_built_before_detaching_survives(self, joinable_pair):
        q, qq = joinable_pair
        result = ContainmentChecker().check(q, qq, explain=True)
        provenance = result.provenance
        assert provenance is not None
        detached = result.detached()
        assert detached.provenance is provenance
        assert detached.explain_data() is provenance


def _renamed(query, name):
    """*query* under another name with every variable renamed."""
    sigma = Substitution({v: Variable(f"R_{v.name}") for v in query.variables()})
    return ConjunctiveQuery(name, query.apply(sigma).head, query.apply(sigma).body)


def _vacuous_pair():
    q1 = ConjunctiveQuery(
        "q1",
        (),
        (data(O, A, Constant("x")), data(O, A, Constant("y")), funct(A, O)),
    )
    return q1, ConjunctiveQuery("q2", (), (sub(O, C),))


class TestDetachedRenaming:
    def test_shared_chase_evidence_renamed_onto_own_q1(self, mandatory_pair):
        q, qq = mandatory_pair
        variant = _renamed(q, "variant")
        checker = ContainmentChecker()
        checker.check(q, qq)
        result = checker.check(variant, qq)
        # The store served variant's check from q's chase...
        assert result.chase_result.query is q
        detached = result.detached()
        # ...but the detached evidence speaks of variant's variables.
        images = {t for _, t in detached.witness.items() if isinstance(t, Variable)}
        assert images and images <= variant.variables()
        assert detached.certificate.head == variant.head
        assert detached.verify()
        assert result.verify()


class TestCanonicalVerdict:
    @pytest.mark.parametrize("flip", [False, True])
    def test_round_trip_to_the_same_pair(self, joinable_pair, mandatory_pair, flip):
        for q1, q2 in (joinable_pair, mandatory_pair):
            if flip:
                q1, q2 = q2, q1
            result = is_contained(q1, q2)
            bound = CanonicalVerdict(result).bind(q1, q2)
            detached = result.detached()
            assert (bound.contained, bound.reason, bound.witness) == (
                detached.contained,
                detached.reason,
                detached.witness,
            )
            assert bound.certificate == detached.certificate
            assert bound.verify()

    def test_vacuous_verdict_binds_and_verifies(self):
        q1, q2 = _vacuous_pair()
        result = is_contained(q1, q2)
        bound = CanonicalVerdict(result).bind(_renamed(q1, "p1"), _renamed(q2, "p2"))
        assert bound.reason is ContainmentReason.CHASE_FAILURE
        assert bound.certificate.failed
        assert bound.verify()

    def test_holds_no_query_or_chase(self, mandatory_pair):
        q, qq = mandatory_pair
        verdict = CanonicalVerdict(is_contained(q, qq))
        held = [getattr(verdict, slot) for slot in CanonicalVerdict.__slots__]
        flat = set()
        stack = list(held)
        while stack:
            item = stack.pop()
            if isinstance(item, tuple):
                stack.extend(item)
            else:
                flat.add(type(item))
        assert ConjunctiveQuery not in flat
        assert Variable not in flat
        assert all(not isinstance(item, ContainmentResult) for item in held)

    def test_bound_variant_rejects_forged_witness(self, mandatory_pair):
        q, qq = mandatory_pair
        verdict = CanonicalVerdict(is_contained(q, qq))
        bound = verdict.bind(_renamed(q, "p1"), _renamed(qq, "p2"))
        assert bound.verify()
        bogus = Substitution({v: Constant("nowhere") for v in bound.q2.variables()})
        assert not dataclasses.replace(bound, witness=bogus).verify()


class TestResultShape:
    def test_delta_none_without_bound(self, joinable_pair):
        q, qq = joinable_pair
        result = contained_classic(q, qq)
        assert result.delta is None

    def test_delta_formula(self, joinable_pair):
        q, qq = joinable_pair
        result = is_contained(q, qq)
        assert result.delta == 2 * q.size

    def test_explain_covers_all_reasons(self, joinable_pair):
        q, qq = joinable_pair
        positive = is_contained(q, qq)
        negative = is_contained(qq, q)
        assert "homomorphism" in positive.explain()
        assert "no witness" in negative.explain()
