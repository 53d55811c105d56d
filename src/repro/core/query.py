"""Conjunctive queries.

A conjunctive query (CQ) is written, as in the paper,

    q(X, Y) :- data(O, A, X), type(O, A, Y).

with a *head* carrying the answer terms and a *body* that is a conjunction
of atoms.  ``|q|`` — the paper's size measure used in the Theorem-12 bound
``delta = 2 * |q1|`` — is the number of body conjuncts.

Queries here are schema-agnostic; :meth:`ConjunctiveQuery.validate_pfl`
checks a query against the P_FL meta-schema when F-logic semantics are
intended.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Optional, Sequence

from .atoms import Atom, validate_pfl_atom
from .errors import QueryError
from .substitution import Substitution
from .terms import Constant, Null, Term, Variable

__all__ = ["ConjunctiveQuery", "fresh_variable_namer"]


def fresh_variable_namer(prefix: str = "R") -> Iterator[Variable]:
    """An endless supply of variables ``R1, R2, ...`` for renaming apart."""
    for i in itertools.count(1):
        yield Variable(f"{prefix}{i}")


class ConjunctiveQuery:
    """An immutable conjunctive query ``head :- body``.

    Parameters
    ----------
    name:
        The head predicate name (``q`` in the paper's examples).
    head:
        The answer tuple — a sequence of terms.  Head *variables* must be
        safe, i.e. occur in the body; head constants are allowed.
    body:
        The conjuncts.  Order is preserved (it matters for chase traces and
        for deterministic tests) but equality of queries is order-sensitive
        only on the head: two queries with permuted bodies are distinct
        objects yet semantically interchangeable everywhere in the library.
    """

    __slots__ = ("name", "head", "body", "_hash", "_canonical", "_canonical_vars")

    def __init__(self, name: str, head: Sequence[Term], body: Iterable[Atom]):
        head = tuple(head)
        body = tuple(body)
        if not name:
            raise QueryError("query name must be non-empty")
        for term in head:
            if not isinstance(term, Term):
                raise QueryError(f"head term is not a Term: {term!r}")
        if not body:
            raise QueryError(f"query {name} has an empty body")
        body_vars = set()
        for atom in body:
            if not isinstance(atom, Atom):
                raise QueryError(f"body conjunct is not an Atom: {atom!r}")
            body_vars |= atom.variables()
        for term in head:
            if isinstance(term, Variable) and term not in body_vars:
                raise QueryError(
                    f"unsafe query {name}: head variable {term} does not occur in the body"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_hash", hash((name, head, body)))
        object.__setattr__(self, "_canonical", None)
        object.__setattr__(self, "_canonical_vars", None)

    def __setattr__(self, key, value):  # pragma: no cover - guarded mutation
        raise AttributeError("ConjunctiveQuery is immutable")

    def __reduce__(self):
        return (ConjunctiveQuery, (self.name, self.head, self.body))

    # -- basic structure ----------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of answer terms (queries compared for containment must agree)."""
        return len(self.head)

    @property
    def size(self) -> int:
        """``|q|`` — the number of body conjuncts (paper's size measure)."""
        return len(self.body)

    def __len__(self) -> int:
        return self.size

    def variables(self) -> set[Variable]:
        """All variables of the query (body variables; head vars are among them)."""
        out: set[Variable] = set()
        for atom in self.body:
            out |= atom.variables()
        for term in self.head:
            if isinstance(term, Variable):
                out.add(term)
        return out

    def constants(self) -> set[Constant]:
        """All real constants occurring in head or body."""
        out: set[Constant] = set()
        for atom in self.body:
            out |= atom.constants()
        for term in self.head:
            if isinstance(term, Constant):
                out.add(term)
        return out

    def head_variables(self) -> set[Variable]:
        """Variables that occur in the head (the distinguished ones)."""
        return {t for t in self.head if isinstance(t, Variable)}

    def existential_variables(self) -> set[Variable]:
        """Body variables that do not appear in the head."""
        return self.variables() - self.head_variables()

    def predicates(self) -> set[str]:
        """The predicate names used by the body conjuncts."""
        return {atom.predicate for atom in self.body}

    # -- schema -------------------------------------------------------------

    def validate_pfl(self) -> "ConjunctiveQuery":
        """Check every body conjunct against the P_FL schema; return self."""
        for atom in self.body:
            validate_pfl_atom(atom)
        return self

    # -- transformation -----------------------------------------------------

    def apply(self, sigma: Substitution) -> "ConjunctiveQuery":
        """The image of the whole query under *sigma* (head and body)."""
        return ConjunctiveQuery(
            self.name,
            tuple(sigma.apply_term(t) for t in self.head),
            sigma.apply_atoms(self.body),
        )

    def rename_apart(
        self, taken: Iterable[Variable], namer: Optional[Iterator[Variable]] = None
    ) -> tuple["ConjunctiveQuery", Substitution]:
        """Rename this query's variables away from *taken*.

        Returns the renamed query and the renaming substitution.  Used when
        two queries are put side by side (e.g. containment of a query in
        itself) so that shared variable names do not accidentally link them.
        """
        taken = set(taken)
        namer = namer or fresh_variable_namer()
        mapping: dict[Variable, Term] = {}
        mine = self.variables()
        for var in sorted(mine, key=lambda v: v.name):
            if var in taken:
                fresh = next(namer)
                while fresh in taken or fresh in mine or fresh in mapping.values():
                    fresh = next(namer)
                mapping[var] = fresh
        sigma = Substitution(mapping)
        return self.apply(sigma), sigma

    def with_body(self, body: Iterable[Atom]) -> "ConjunctiveQuery":
        """A copy of this query with a different body (same name and head)."""
        return ConjunctiveQuery(self.name, self.head, body)

    def with_head(self, head: Sequence[Term]) -> "ConjunctiveQuery":
        """A copy of this query with a different head tuple."""
        return ConjunctiveQuery(self.name, head, self.body)

    # -- canonical database --------------------------------------------------

    def canonical_atoms(self) -> tuple[Atom, ...]:
        """The body viewed as a database (the chase's starting instance).

        Per the paper's construction the query variables themselves act as
        values, so this is simply the body tuple.
        """
        return self.body

    # -- canonical form -------------------------------------------------------

    def canonical_key(self) -> tuple:
        """A hashable key invariant under variable renaming (alpha-equivalence).

        Two queries receive the same key exactly when one is the other with
        its variables bijectively renamed (possibly after reordering body
        conjuncts) — i.e. when they denote the *same* conjunction.  The key
        is what chase caches index on, so that ``q(X) :- member(X, C)`` and
        ``p(Y) :- member(Y, D)`` share one chase.

        Construction: body conjuncts are sorted by a variable-free
        signature (predicate plus the pattern of constants/nulls), then
        every variable is renamed to its first-occurrence ordinal over the
        head followed by the sorted body.  The query *name* is deliberately
        excluded — it never affects containment semantics.  The key is
        injective up to renaming: it spells out the full head pattern and
        every conjunct, so a collision implies alpha-equivalence.
        """
        cached = self._canonical
        if cached is not None:
            return cached

        def signature(atom: Atom) -> tuple:
            return (
                atom.predicate,
                tuple(
                    ("v",)
                    if isinstance(t, Variable)
                    else ("c", t.name)
                    if isinstance(t, Constant)
                    else ("n", t.index)
                    for t in atom.args
                ),
            )

        ordered = sorted(self.body, key=signature)
        mapping: dict[Variable, int] = {}

        def key_term(term: Term) -> tuple:
            if isinstance(term, Variable):
                ordinal = mapping.get(term)
                if ordinal is None:
                    ordinal = mapping[term] = len(mapping)
                return ("v", ordinal)
            if isinstance(term, Constant):
                return ("c", term.name)
            assert isinstance(term, Null)
            return ("n", term.index)

        head_key = tuple(key_term(t) for t in self.head)
        body_key = tuple(
            (atom.predicate, tuple(key_term(t) for t in atom.args))
            for atom in ordered
        )
        key = (head_key, body_key)
        object.__setattr__(self, "_canonical_vars", tuple(mapping))
        object.__setattr__(self, "_canonical", key)
        return key

    def canonical_variables(self) -> tuple[Variable, ...]:
        """This query's variables in :meth:`canonical_key` ordinal order.

        Entry ``i`` is the variable the key spells ``("v", i)``.  Two
        queries with equal keys therefore correspond position by
        position: pairing their ``canonical_variables()`` is a bijective
        renaming that carries one onto the other.  Facts stated over
        ordinals (a cached verdict's witness and certificate) are bound
        to a concrete query through this tuple.
        """
        if self._canonical_vars is None:
            self.canonical_key()
        return self._canonical_vars

    @property
    def canonical_hash(self) -> int:
        """``hash(self.canonical_key())`` — equal for alpha-equivalent queries."""
        return hash(self.canonical_key())

    # -- equality / display ---------------------------------------------------

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ConjunctiveQuery)
            and self._hash == other._hash
            and self.name == other.name
            and self.head == other.head
            and self.body == other.body
        )

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self!s})"

    def __str__(self) -> str:
        head_inner = ", ".join(str(t) for t in self.head)
        body_inner = ", ".join(str(a) for a in self.body)
        return f"{self.name}({head_inner}) :- {body_inner}."
