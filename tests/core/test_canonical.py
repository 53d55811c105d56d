"""Unit tests for the alpha-invariant canonical form of queries."""

from repro.core.atoms import member, sub, type_
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable

O, C, D, A, T = (Variable(n) for n in "O C D A T".split())
X, Y, Z, W, V = (Variable(n) for n in "X Y Z W V".split())
book = Constant("book")


def q(name, head, body):
    return ConjunctiveQuery(name, head, body)


class TestCanonicalKey:
    def test_rename_apart_variant_shares_key(self):
        q1 = q("q1", (O, C), (member(O, D), sub(D, C)))
        q2 = q("q2", (X, Y), (member(X, Z), sub(Z, Y)))
        assert q1.canonical_key() == q2.canonical_key()
        assert q1.canonical_hash == q2.canonical_hash

    def test_body_reordering_shares_key(self):
        q1 = q("q1", (O, C), (member(O, D), sub(D, C)))
        q2 = q("q2", (O, C), (sub(D, C), member(O, D)))
        assert q1.canonical_key() == q2.canonical_key()

    def test_name_is_irrelevant(self):
        q1 = q("alpha", (O,), (member(O, book),))
        q2 = q("omega", (O,), (member(O, book),))
        assert q1.canonical_key() == q2.canonical_key()

    def test_different_constants_differ(self):
        q1 = q("q1", (O,), (member(O, book),))
        q2 = q("q2", (O,), (member(O, Constant("car")),))
        assert q1.canonical_key() != q2.canonical_key()

    def test_different_join_structure_differs(self):
        joined = q("q1", (O, C), (member(O, D), sub(D, C)))
        unjoined = q("q2", (O, C), (member(O, D), sub(A, C)))
        assert joined.canonical_key() != unjoined.canonical_key()

    def test_head_order_matters(self):
        q1 = q("q1", (O, C), (member(O, C),))
        q2 = q("q2", (C, O), (member(O, C),))
        assert q1.canonical_key() != q2.canonical_key()

    def test_head_projection_matters(self):
        q1 = q("q1", (O,), (member(O, C),))
        q2 = q("q2", (C,), (member(O, C),))
        assert q1.canonical_key() != q2.canonical_key()

    def test_key_is_cached(self):
        query = q("q", (O, C), (member(O, D), sub(D, C)))
        assert query.canonical_key() is query.canonical_key()

    def test_duplicate_atom_multiplicity_preserved(self):
        q1 = q("q1", (O,), (member(O, C), member(O, C)))
        q2 = q("q2", (O,), (member(O, C),))
        assert q1.canonical_key() != q2.canonical_key()

    def test_three_way_rename_and_shuffle(self):
        q1 = q("q1", (X,), (type_(X, Y, Z), sub(Z, W), member(X, W)))
        q2 = q("q2", (A,), (member(A, T), sub(D, T), type_(A, C, D)))
        assert q1.canonical_key() == q2.canonical_key()

    def test_equal_queries_equal_hash(self):
        q1 = q("q1", (O, C), (member(O, D), sub(D, C)))
        q2 = q("q2", (X, Y), (sub(Z, Y), member(X, Z)))
        assert q1.canonical_hash == q2.canonical_hash


class TestCanonicalVariables:
    def test_ordinal_order_matches_the_key(self):
        query = q("q1", (C,), (sub(D, C), member(O, D)))
        # Head first, then the signature-sorted body: member < sub.
        assert query.canonical_variables() == (C, O, D)

    def test_pairing_renames_one_variant_onto_the_other(self):
        from repro.core.substitution import Substitution

        q1 = q("q1", (O, C), (member(O, D), sub(D, C), type_(C, A, T)))
        q2 = q("q2", (X, Y), (sub(Z, Y), type_(Y, W, V), member(X, Z)))
        renaming = Substitution(
            dict(zip(q1.canonical_variables(), q2.canonical_variables()))
        )
        assert set(q1.apply(renaming).body) == set(q2.body)
        assert q1.apply(renaming).head == q2.head

    def test_available_before_the_key_is_asked_for(self):
        query = q("q1", (O,), (member(O, book),))
        assert query.canonical_variables() == (O,)
        assert query.canonical_key() == ((("v", 0),), (("member", (("v", 0), ("c", "book"))),))
