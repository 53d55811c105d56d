"""Unit tests for schema-relative containment."""

import pytest

from repro import ContainmentChecker, is_contained
from repro.core.atoms import data, mandatory, member, sub, type_
from repro.core.errors import QueryError
from repro.core.query import ConjunctiveQuery
from repro.core.terms import Constant, Variable

B, T, A, O = (Variable(n) for n in "B T A O".split())
book, publication, title = (Constant(x) for x in ("book", "publication", "title"))

books = ConjunctiveQuery("books", (B,), (member(B, book),))
pubs = ConjunctiveQuery("pubs", (B,), (member(B, publication),))

SCHEMA = (sub(book, publication),)


class TestRelativeContainment:
    def test_absolute_fails_relative_holds(self):
        assert not is_contained(books, pubs).contained
        assert is_contained(books, pubs, schema=SCHEMA).contained

    def test_relative_never_weaker_than_absolute(self):
        """Absolute containment implies relative containment."""
        q1 = ConjunctiveQuery("q1", (B,), (member(B, book), sub(book, publication)))
        assert is_contained(q1, pubs).contained
        assert is_contained(q1, pubs, schema=SCHEMA).contained

    def test_empty_schema_is_absolute(self):
        assert (
            is_contained(books, pubs, schema=()).contained
            == is_contained(books, pubs).contained
        )

    def test_unrelated_schema_changes_nothing(self):
        other = (sub(Constant("car"), Constant("vehicle")),)
        assert not is_contained(books, pubs, schema=other).contained

    def test_schema_with_signature_and_mandatory(self):
        """Relative to 'title is mandatory on publication', every
        publication member has a title value."""
        schema = (
            sub(book, publication),
            mandatory(title, publication),
        )
        q2 = ConjunctiveQuery(
            "q2", (B,), (member(B, publication), data(B, title, T))
        )
        assert not is_contained(books, q2).contained
        assert is_contained(books, q2, schema=schema).contained

    def test_non_ground_schema_rejected(self):
        with pytest.raises(QueryError):
            is_contained(books, pubs, schema=(sub(B, publication),))

    def test_checker_api(self):
        checker = ContainmentChecker()
        assert checker.check(books, pubs, schema=SCHEMA).contained

    def test_verify_still_works_relative(self):
        result = is_contained(books, pubs, schema=SCHEMA)
        assert result.verify()

    def test_kb_schema_atoms_integration(self):
        from repro.flogic import KnowledgeBase

        kb = KnowledgeBase().load(
            """
            book::publication.
            publication[title {1:*} *=> string].
            b1:book.
            """
        )
        schema = kb.schema_atoms()
        assert sub(book, publication) in schema
        assert all(a.predicate != "member" for a in schema)
        assert is_contained(books, pubs, schema=schema).contained
