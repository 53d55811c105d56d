"""Integration tests: whole pipelines, from source text to verdicts."""

import pytest

from repro import ContainmentChecker, contained_classic
from repro.flogic import KnowledgeBase, encode_rule, parse_program, parse_statement


class TestTextToContainment:
    """The paper's Section-1 flow, all through the public text API."""

    SOURCE = """
    % joinable attribute pairs
    q(A,B)  :- T1[A*=>T2], T2::T3, T3[B*=>_].
    qq(A,B) :- T1[A*=>T2], T2[B*=>_].
    """

    def test_parse_encode_check(self):
        program = parse_program(self.SOURCE)
        q, qq = (encode_rule(r) for r in program.rules())
        checker = ContainmentChecker()
        assert checker.check(q, qq).contained
        assert not checker.check(qq, q).contained
        assert not contained_classic(q, qq).contained

    def test_explanations_readable(self):
        program = parse_program(self.SOURCE)
        q, qq = (encode_rule(r) for r in program.rules())
        result = ContainmentChecker().check(q, qq)
        text = result.explain()
        assert "homomorphism" in text and "chase" in text


class TestOntologyLifecycle:
    """Build a KB, reason, query, evolve, re-query."""

    def test_full_lifecycle(self):
        kb = KnowledgeBase()
        kb.load(
            """
            vehicle[wheels {0:1} *=> number].
            car::vehicle.  bike::vehicle.
            car[doors *=> number].
            herbie:car.
            herbie[wheels->4].
            """
        )
        assert kb.is_consistent()
        assert kb.holds("?- herbie:vehicle.")
        assert kb.holds("?- 4:number.")  # rho1 through inherited signature
        # Meta-query: which classes have a number-typed attribute?
        answers = kb.ask("?- C[Att*=>number].")
        pairs = {(str(a[0]), str(a[1])) for a in answers}
        assert ("vehicle", "wheels") in pairs
        assert ("car", "wheels") in pairs  # rho7 inheritance
        assert ("herbie", "wheels") in pairs  # rho6 to members
        # Evolve: a second wheels value for herbie merges (functional).
        kb.add("herbie[wheels->4].")
        assert kb.is_consistent()
        kb.add("herbie[wheels->5].")
        assert not kb.is_consistent()

    def test_mandatory_value_invention_is_visible_but_uncertain(self):
        kb = KnowledgeBase()
        kb.load(
            """
            person[ssn {1:*} *=> string].
            ada:person.
            """
        )
        answers = kb.ask("?- ada[ssn->V].")
        assert len(answers) == 1 and not answers[0].certain
        assert kb.ask("?- ada[ssn->V].", certain_only=True) == []


class TestQueryOptimisationScenario:
    """Containment as a query optimiser: detect redundant conjuncts."""

    def test_redundant_subclass_hop_detected(self):
        # expensive: joins an extra subclass hop that Sigma_FL makes redundant
        expensive = parse_statement(
            "exp(O) :- member(O, C), sub(C, D), member(O, D)."
        )
        cheap = parse_statement("chp(O) :- member(O, C), sub(C, D).")
        q_exp, q_chp = encode_rule(expensive), encode_rule(cheap)
        checker = ContainmentChecker()
        # Equivalent under Sigma_FL (rho3 derives the third conjunct) ...
        assert checker.check(q_exp, q_chp).contained
        assert checker.check(q_chp, q_exp).contained
        # ... but not classically (the cheap one is strictly weaker there).
        assert contained_classic(q_exp, q_chp).contained
        assert not contained_classic(q_chp, q_exp).contained

    def test_minimised_query_same_answers_on_kb(self, university_kb):
        full = encode_rule(
            parse_statement("f(O) :- member(O, C), sub(C, D), member(O, D).")
        )
        minimised = encode_rule(parse_statement("m(O) :- member(O, C), sub(C, D)."))
        assert university_kb.ask(full) == university_kb.ask(minimised)
