"""Containment of unions of conjunctive meta-queries (UCQs).

The paper's Section 5 lists "more expressive query languages" as future
work; unions are the canonical first step.  The classical
Sagiv–Yannakakis argument lifts directly to the constrained setting
through the universal-model property of the chase:

    ∪_j q1_j  ⊆_Σ  ∪_i q2_i
        iff
    for every j there is an i with a homomorphism from body(q2_i) into
    chase_Σ(q1_j) mapping head(q2_i) onto head(chase(q1_j)).

(The forward direction is per-disjunct Theorem 4 applied to the chase of
``q1_j`` as the witness database; the backward direction composes
homomorphisms exactly as in the CQ case.  No cross-disjunct interaction
exists because a single answer tuple of the union comes from a single
disjunct.)  Each per-pair check uses the Theorem-12 level bound, so the
whole procedure stays decidable and in NP (the witness is one choice of
``i`` per ``j`` plus the homomorphisms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from ..containment.bounded import ContainmentChecker
from ..containment.result import ContainmentResult
from ..core.errors import QueryError
from ..core.query import ConjunctiveQuery
from ..dependencies.dependency import Dependency
from ..dependencies.sigma_fl import SIGMA_FL

__all__ = ["UnionQuery", "UCQContainmentResult", "ucq_contained"]


class UnionQuery:
    """A union of same-arity conjunctive queries."""

    __slots__ = ("name", "disjuncts")

    def __init__(self, name: str, disjuncts: Iterable[ConjunctiveQuery]):
        disjuncts = tuple(disjuncts)
        if not disjuncts:
            raise QueryError(f"union {name} needs at least one disjunct")
        arity = disjuncts[0].arity
        for disjunct in disjuncts:
            if disjunct.arity != arity:
                raise QueryError(
                    f"union {name}: disjunct {disjunct.name} has arity "
                    f"{disjunct.arity}, expected {arity}"
                )
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "disjuncts", disjuncts)

    def __setattr__(self, key, value):  # pragma: no cover - guarded mutation
        raise AttributeError("UnionQuery is immutable")

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __iter__(self):
        return iter(self.disjuncts)

    def __str__(self) -> str:
        return " UNION ".join(str(d) for d in self.disjuncts)

    @classmethod
    def wrap(cls, query) -> "UnionQuery":
        """Coerce a CQ (or pass through a UnionQuery) for mixed-call APIs."""
        if isinstance(query, UnionQuery):
            return query
        return cls(query.name, (query,))


@dataclass
class UCQContainmentResult:
    """The verdict plus the per-disjunct witness matrix."""

    u1: UnionQuery
    u2: UnionQuery
    contained: bool
    #: For each disjunct of u1 (by name): the u2 disjunct that covers it
    #: (with its ContainmentResult), or None when uncovered.
    coverage: dict[str, Optional[tuple[str, ContainmentResult]]] = field(
        default_factory=dict
    )

    def __bool__(self) -> bool:
        return self.contained

    def uncovered(self) -> list[str]:
        return [name for name, cover in self.coverage.items() if cover is None]

    def explain(self) -> str:
        rel = "⊆" if self.contained else "⊄"
        lines = [f"{self.u1.name} {rel} {self.u2.name}:"]
        for name, cover in self.coverage.items():
            if cover is None:
                lines.append(f"  {name}: NOT covered by any disjunct")
            else:
                covering, _ = cover
                lines.append(f"  {name}: covered by {covering}")
        return "\n".join(lines)


def ucq_contained(
    u1,
    u2,
    *,
    dependencies: Sequence[Dependency] = SIGMA_FL,
    checker: Optional[ContainmentChecker] = None,
) -> UCQContainmentResult:
    """Decide ``u1 ⊆_Sigma u2`` for unions of conjunctive queries.

    Accepts plain :class:`ConjunctiveQuery` objects on either side (they
    are treated as singleton unions), so this is a strict generalisation
    of :func:`repro.containment.bounded.is_contained`.
    """
    u1 = UnionQuery.wrap(u1)
    u2 = UnionQuery.wrap(u2)
    if u1.arity != u2.arity:
        raise QueryError(
            f"arity mismatch: {u1.name}/{u1.arity} vs {u2.name}/{u2.arity}"
        )
    checker = checker or ContainmentChecker(dependencies)
    # Batch the full disjunct x candidate cross product: every pair with the
    # same left disjunct shares one chase (check_all groups by q1 and chases
    # it once to the largest Theorem-12 bound any candidate needs).
    pairs = [(disjunct, candidate) for disjunct in u1 for candidate in u2]
    verdicts = iter(checker.check_all(pairs))
    coverage: dict[str, Optional[tuple[str, ContainmentResult]]] = {}
    contained = True
    for disjunct in u1:
        cover: Optional[tuple[str, ContainmentResult]] = None
        for candidate in u2:
            result = next(verdicts)
            if result.contained and cover is None:
                cover = (candidate.name, result)
        coverage[disjunct.name] = cover
        if cover is None:
            contained = False
    return UCQContainmentResult(u1=u1, u2=u2, contained=contained, coverage=coverage)
