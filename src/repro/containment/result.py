"""Containment verdicts with their evidence.

A containment check does not just answer yes/no: a *yes* carries the
witness homomorphism (and, under constraints, the chase prefix it maps
into), a *no* records how exhaustively the search refuted the witness.
Keeping the evidence makes results testable and the experiment tables
self-explanatory.

Under resource governance the verdict is **three-valued**: a governed
check whose budget runs out before either a witness is found or the full
Theorem-12 prefix is searched returns an ``UNKNOWN`` result
(:attr:`ContainmentResult.unknown` true, :attr:`ContainmentResult.decision`
= :attr:`Decision.UNKNOWN`) carrying the reason, the levels chased, and
the :class:`~repro.governance.BudgetReport`.  Soundness of Theorem 12 is
preserved by construction — a decision requires a positive witness or a
completed ``|q2|·2·|q1|``-level prefix, and an exhausted budget provides
neither, so the checker *refuses to guess* rather than extrapolating.

A fresh result holds the live chase it was decided on
(:attr:`ContainmentResult.chase_result`).  A result that outlives its
request — a cached verdict, or one pickled back from a pool worker —
keeps only the O(|q2|) :class:`Certificate` instead
(:meth:`ContainmentResult.detached`), so caching verdicts never pins
chases the chase store has already evicted.  A cached verdict goes one
step further: :class:`CanonicalVerdict` states the decision and its
evidence over canonical variable ordinals, holds no query, and is bound
back to whichever alpha-equivalent pair asks next.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..core.substitution import Substitution
from ..core.terms import Term

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chase.engine import ChaseResult
    from ..governance.budget import BudgetReport
    from ..obs.provenance import ContainmentProvenance

__all__ = [
    "CanonicalVerdict",
    "Certificate",
    "ContainmentReason",
    "ContainmentResult",
    "Decision",
]


class Decision(enum.Enum):
    """The three-valued outcome of a governed containment check."""

    #: A witness homomorphism (or a failing chase) proves ``q1 ⊆ q2``.
    TRUE = "decided_true"
    #: The completed Theorem-12 prefix holds no witness: ``q1 ⊄ q2``.
    FALSE = "decided_false"
    #: The budget ran out (or the run was cancelled) before either a
    #: witness or a completed prefix existed; no decision is sound.
    UNKNOWN = "unknown"


class ContainmentReason(enum.Enum):
    """Why the verdict is what it is."""

    #: A homomorphism body(q2) -> chase(q1) with the head condition exists.
    HOMOMORPHISM = "homomorphism"
    #: The chase of q1 failed (EGD clash): q1 is unsatisfiable under the
    #: constraints, so it is vacuously contained in any same-arity query.
    CHASE_FAILURE = "chase-failure"
    #: No witness homomorphism exists within the examined chase prefix.
    NO_HOMOMORPHISM = "no-homomorphism"
    #: The execution budget (deadline, facts, memory or steps) ran out
    #: before a sound decision existed — the result is UNKNOWN.
    BUDGET_EXHAUSTED = "budget-exhausted"
    #: The check's cancel scope was cancelled — the result is UNKNOWN.
    CANCELLED = "cancelled"


#: Reasons whose results are UNKNOWN rather than decisions.
_UNKNOWN_REASONS = frozenset(
    {ContainmentReason.BUDGET_EXHAUSTED, ContainmentReason.CANCELLED}
)


@dataclass(frozen=True)
class Certificate:
    """Theorem 13's polynomial certificate of one verdict.

    Everything :meth:`ContainmentResult.verify` reads from the chase: the
    prefix facts the witness lands on, each with its chase level, the
    chased head ``head(chase(q1))``, and whether the chase failed.  Its
    size is O(|q2|) whatever the size of the prefix.
    """

    #: ``(fact, level)`` for each distinct witness image found in the
    #: chase; an image the chase does not hold is simply absent.
    facts: tuple[tuple[Atom, int], ...] = ()
    head: tuple[Term, ...] = ()
    failed: bool = False

    @classmethod
    def from_chase(
        cls,
        chase_result: "ChaseResult",
        witness: Optional[Substitution],
        q2: ConjunctiveQuery,
    ) -> "Certificate":
        """Read the certificate of *witness* off a chase result."""
        instance = chase_result.instance
        facts: dict[Atom, int] = {}
        if instance is not None and witness is not None:
            for atom in q2.body:
                image = witness.apply_atom(atom)
                if image in instance:
                    facts[image] = instance.level_of(image)
        return cls(
            facts=tuple(facts.items()),
            head=tuple(chase_result.head),
            failed=chase_result.failed,
        )

    def renamed(self, renaming: Substitution) -> "Certificate":
        """This certificate with *renaming* applied to every term."""
        return Certificate(
            facts=tuple(
                (renaming.apply_atom(fact), level) for fact, level in self.facts
            ),
            head=tuple(renaming.apply_term(t) for t in self.head),
            failed=self.failed,
        )


@dataclass
class ContainmentResult:
    """The outcome of checking ``q1 ⊆ q2`` (under constraints or not)."""

    q1: ConjunctiveQuery
    q2: ConjunctiveQuery
    contained: bool
    reason: ContainmentReason
    witness: Optional[Substitution] = None
    chase_result: Optional["ChaseResult"] = None
    level_bound: Optional[int] = None
    elapsed_seconds: float = 0.0
    #: How the chase prefix was obtained: ``"full-chase"`` (fresh run),
    #: ``"cache-hit"`` (stored prefix already covered the bound) or
    #: ``"cache-extend"`` (stored prefix incrementally extended).  ``None``
    #: when the decision did not go through a :class:`ChaseStore`.
    chase_outcome: Optional[str] = None
    #: Decision provenance (witness levels, per-level fact counts, rule
    #: firing sequence), attached by ``ContainmentChecker.check(...,
    #: explain=True)`` or built lazily by :meth:`explain_data`.
    provenance: Optional["ContainmentProvenance"] = None
    #: Chase level at which the anytime pipeline's witness search
    #: succeeded (``None`` for negative verdicts, chase-failure verdicts
    #: and monolithic-mode decisions).  Positive anytime decisions exit at
    #: this level instead of materialising the full ``level_bound``.
    witness_level: Optional[int] = None
    #: Chase levels actually examined by this decision — at most
    #: ``level_bound``, and strictly less on an early (witness or
    #: saturation) exit.  ``None`` when the decision did not go through
    #: the level-driven checker.
    levels_chased: Optional[int] = None
    #: Chase wall-clock this decision caused (seconds of fresh
    #: ``extend_to`` work).  In batch mode the group's shared chase is
    #: attributed to the *first* result that triggered it — the per-result
    #: ``elapsed_seconds`` of the remaining group members excludes chase
    #: cost by construction, so summing ``shared_chase_seconds`` over a
    #: batch recovers the true chase bill exactly once.
    shared_chase_seconds: Optional[float] = None
    #: Budget consumption at the moment a governed check stopped,
    #: attached to UNKNOWN results (and occasionally to decided ones
    #: when a governor was active).  ``None`` for ungoverned checks.
    budget_report: Optional["BudgetReport"] = None
    #: The verdict's evidence once :meth:`detached` has dropped
    #: :attr:`chase_result`; ``None`` while the result holds its chase.
    certificate: Optional[Certificate] = None

    def __bool__(self) -> bool:
        """Truthiness is ``contained`` — conservatively False for UNKNOWN.

        An UNKNOWN result is *not* a negative decision (check
        :attr:`unknown` or :attr:`decision` to distinguish), but treating
        it as falsy means code that only acts on a proven containment
        never acts on an undecided one.
        """
        return self.contained

    @property
    def unknown(self) -> bool:
        """True when this result is no decision at all (budget/cancel)."""
        return self.reason in _UNKNOWN_REASONS

    @property
    def decision(self) -> Decision:
        """The three-valued outcome: TRUE, FALSE, or UNKNOWN."""
        if self.unknown:
            return Decision.UNKNOWN
        return Decision.TRUE if self.contained else Decision.FALSE

    def explain_data(self) -> Optional["ContainmentProvenance"]:
        """The structured provenance payload, built on first request.

        Returns ``None`` only when no chase evidence is attached (a
        constraint-free Theorem-4 style result, or a :meth:`detached` one
        whose provenance was never built).  The payload is cached on the
        result, so repeated calls are free.
        """
        if self.provenance is None:
            from ..obs.provenance import build_provenance

            self.provenance = build_provenance(self)
        return self.provenance

    @property
    def delta(self) -> Optional[int]:
        """The paper's ``delta = 2 * |q1|`` when a bound was used."""
        if self.level_bound is None:
            return None
        return 2 * self.q1.size

    @property
    def early_exit(self) -> bool:
        """Whether the anytime pipeline stopped short of the level bound.

        True when a witness appeared before the Theorem-12 bound was
        materialised — the saving the interleaved chase/search schedule
        exists for.  (Saturation before the bound is not counted: the
        monolithic path stops there too.)
        """
        return (
            self.witness_level is not None
            and self.level_bound is not None
            and self.witness_level < self.level_bound
        )

    def detached(self) -> "ContainmentResult":
        """A copy that keeps the :class:`Certificate`, not the chase.

        The copy has ``chase_result=None`` and carries the certificate
        read off the chase, so it still passes :meth:`verify` while
        holding O(|q2|) evidence instead of the whole prefix.  Provenance
        already built for an explain request is kept.  A result that
        holds no chase is returned unchanged.

        The chase may have been started from an alpha-equivalent query
        with other variable names (the chase store shares one run per
        canonical key).  The copy's witness and certificate are renamed
        onto :attr:`q1`'s own variables, so a detached result speaks
        only of its own queries.
        """
        if self.chase_result is None:
            return self
        witness, certificate = self.witness, self._certificate()
        source = self.chase_result.query
        if (
            certificate is not None
            and source.canonical_key() == self.q1.canonical_key()
            and source.canonical_variables() != self.q1.canonical_variables()
        ):
            sigma = Substitution.from_trusted(
                dict(zip(source.canonical_variables(), self.q1.canonical_variables()))
            )
            certificate = certificate.renamed(sigma)
            if witness is not None:
                witness = Substitution.from_trusted(
                    {v: sigma.apply_term(t) for v, t in witness.items()}
                )
        return dataclasses.replace(
            self, chase_result=None, witness=witness, certificate=certificate
        )

    def _certificate(self) -> Optional[Certificate]:
        """The stored certificate, or one derived from the held chase."""
        if self.certificate is not None or self.chase_result is None:
            return self.certificate
        return Certificate.from_chase(self.chase_result, self.witness, self.q2)

    def verify(self) -> bool:
        """Re-check this result's certificate in polynomial time.

        Theorem 13's NP membership rests on a polynomially checkable
        certificate: the witness homomorphism together with the chase
        facts it maps onto.  This method re-validates a positive verdict
        from its evidence alone — every body conjunct of ``q2`` must land
        on a certified fact within the level bound and the head must land
        on the chased head — without re-running any search.  Negative
        verdicts and vacuous (chase-failure) verdicts return True when
        their evidence is shaped correctly; a corrupted result returns
        False.  Full and :meth:`detached` results verify identically.
        """
        if self.unknown:
            # An UNKNOWN result must claim nothing: no containment flag,
            # no witness.  (A result carrying a witness but labelled
            # UNKNOWN is corrupted — the witness alone would have decided.)
            return not self.contained and self.witness is None
        certificate = self._certificate()
        if self.reason is ContainmentReason.CHASE_FAILURE:
            return self.contained and certificate is not None and certificate.failed
        if not self.contained:
            return self.witness is None
        if self.witness is None or certificate is None:
            return False
        levels = dict(certificate.facts)
        for atom in self.q2.body:
            level = levels.get(self.witness.apply_atom(atom))
            if level is None:
                return False
            if self.level_bound is not None and level > self.level_bound:
                return False
        head_image = tuple(self.witness.apply_term(t) for t in self.q2.head)
        return head_image == certificate.head

    def explain(self) -> str:
        """A one-paragraph human-readable justification of the verdict."""
        if self.unknown:
            what = (
                "the execution budget ran out"
                if self.reason is ContainmentReason.BUDGET_EXHAUSTED
                else "the check was cancelled"
            )
            progress = (
                f" after chasing {self.levels_chased} of "
                f"{self.level_bound} bound levels"
                if self.levels_chased is not None and self.level_bound is not None
                else ""
            )
            report = f"  {self.budget_report}" if self.budget_report else ""
            return (
                f"{self.q1.name} ⊆? {self.q2.name}: UNKNOWN — {what}{progress}. "
                "Theorem 12 decides containment only from a positive witness "
                "or a fully searched |q2|·2·|q1|-level prefix; neither exists "
                "here, so no sound decision can be reported." + report
            )
        rel = "⊆" if self.contained else "⊄"
        lead = f"{self.q1.name} {rel} {self.q2.name}"
        if self.reason is ContainmentReason.CHASE_FAILURE:
            return (
                f"{lead}: the chase of {self.q1.name} fails (the functionality "
                "EGD equates two distinct constants), so the query has no "
                "answers on any database satisfying the constraints and is "
                "vacuously contained."
            )
        if self.reason is ContainmentReason.HOMOMORPHISM:
            where = (
                f"the first {self.level_bound} levels of the chase"
                if self.level_bound is not None
                else "the canonical database"
            )
            if self.early_exit:
                where += (
                    f" (witness found at level {self.witness_level}, "
                    f"well before the bound)"
                )
            return (
                f"{lead}: a homomorphism maps body({self.q2.name}) into {where} "
                f"of {self.q1.name} and its head onto head(chase({self.q1.name})): "
                f"{self.witness}"
            )
        where = (
            f"within the Theorem-12 bound of {self.level_bound} levels"
            if self.level_bound is not None
            else "into the canonical database"
        )
        return f"{lead}: no witness homomorphism exists {where}."

    def __repr__(self) -> str:
        shown = "UNKNOWN" if self.unknown else self.contained
        return (
            f"ContainmentResult({self.q1.name} ⊆ {self.q2.name}: "
            f"{shown} [{self.reason.value}])"
        )


class CanonicalVerdict:
    """A decided verdict stated over canonical variable ordinals.

    The form a verdict cache stores: the decision fields of a
    :class:`ContainmentResult`, plus its witness and :class:`Certificate`
    with ``q1``'s variables replaced by their
    :meth:`~repro.core.query.ConjunctiveQuery.canonical_variables`
    ordinals (ints).  Constants and nulls stay as the interned terms they
    are.  The witness is one image per ``q2`` ordinal, and each
    certified fact is a flat ``(predicate, level, *args)`` tuple.  It
    holds no :class:`~repro.core.query.ConjunctiveQuery` and no chase, so
    one entry serves every alpha-equivalent pair.  :meth:`bind` rebuilds
    a result around the caller's own queries, whose ``verify()`` holds
    exactly when the original's did.  Provenance is kept only when the
    result carried one (explain requests); its query names are rebound
    too.
    """

    __slots__ = (
        "contained",
        "reason",
        "level_bound",
        "witness_level",
        "levels_chased",
        "elapsed_seconds",
        "chase_outcome",
        "witness",
        "facts",
        "head",
        "failed",
        "provenance",
    )

    def __init__(self, result: ContainmentResult):
        result = result.detached()
        ordinal = {v: i for i, v in enumerate(result.q1.canonical_variables())}

        def encode(term):
            return ordinal.get(term, term)

        self.contained = result.contained
        self.reason = result.reason
        self.level_bound = result.level_bound
        self.witness_level = result.witness_level
        self.levels_chased = result.levels_chased
        self.elapsed_seconds = result.elapsed_seconds
        self.chase_outcome = result.chase_outcome
        self.witness = (
            None
            if result.witness is None
            else tuple(
                encode(result.witness.get(v))
                for v in result.q2.canonical_variables()
            )
        )
        certificate = result.certificate
        if certificate is None:
            self.facts = self.head = self.failed = None
        else:
            self.facts = tuple(
                (fact.predicate, level, *map(encode, fact.args))
                for fact, level in certificate.facts
            )
            self.head = tuple(map(encode, certificate.head))
            self.failed = certificate.failed
        self.provenance = result.provenance

    def bind(self, q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> ContainmentResult:
        """The verdict as a result about *q1* and *q2*.

        The pair must have the canonical keys of the pair the verdict was
        decided for; ordinal ``i`` then names ``q1.canonical_variables()[i]``
        (and likewise for ``q2``'s witness domain).
        """
        names = q1.canonical_variables()

        def decode(term):
            return names[term] if type(term) is int else term

        witness = None
        if self.witness is not None:
            witness = Substitution.from_trusted(
                {
                    v: decode(t)
                    for v, t in zip(q2.canonical_variables(), self.witness)
                    if t is not None
                }
            )
        certificate = None
        if self.facts is not None:
            certificate = Certificate(
                facts=tuple(
                    (Atom(fact[0], map(decode, fact[2:])), fact[1])
                    for fact in self.facts
                ),
                head=tuple(map(decode, self.head)),
                failed=self.failed,
            )
        provenance = self.provenance
        if provenance is not None:
            provenance = dataclasses.replace(provenance, q1=q1.name, q2=q2.name)
        return ContainmentResult(
            q1=q1,
            q2=q2,
            contained=self.contained,
            reason=self.reason,
            witness=witness,
            level_bound=self.level_bound,
            elapsed_seconds=self.elapsed_seconds,
            chase_outcome=self.chase_outcome,
            provenance=provenance,
            witness_level=self.witness_level,
            levels_chased=self.levels_chased,
            certificate=certificate,
        )
