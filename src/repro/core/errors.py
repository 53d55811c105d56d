"""Exception hierarchy shared by every subsystem of the reproduction.

Keeping all error types in one module lets callers catch ``ReproError`` to
trap anything raised by this library while still being able to distinguish
the individual failure modes (arity clashes, parse errors, chase failure,
...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ArityError(ReproError):
    """An atom was built with the wrong number of arguments for its predicate."""


class SchemaError(ReproError):
    """A predicate name is unknown to the schema in use (e.g. not in P_FL)."""


class SubstitutionError(ReproError):
    """A substitution was asked to do something inconsistent.

    The typical case is binding one variable to two different terms.
    """


class UnificationError(ReproError):
    """Two atoms or terms do not unify."""


class QueryError(ReproError):
    """A conjunctive query is malformed.

    Examples: a head variable that never occurs in the body (unsafe query),
    or two queries of different arity being compared for containment.
    """


class AdmissionRejected(ReproError):
    """The containment service refused to admit a request.

    Raised by the service layer's admission controller when the bounded
    request queue is full or the service is draining toward shutdown.
    Rejection is explicit and immediate — a request is never silently
    dropped, and an admitted request is never evicted part-way.
    """

    def __init__(self, message: str, *, reason: str = "rejected"):
        super().__init__(message)
        #: Machine-readable cause: ``"queue-full"`` or ``"draining"``.
        self.reason = reason


class ChaseFailure(ReproError):
    """The chase failed: an EGD equated two distinct real constants.

    Per Definition 2(1)(a) of the paper the chase construction stops and
    *fails*; for containment purposes a failing chase of ``q1`` means ``q1``
    has no answers over any database satisfying Sigma_FL, hence it is
    vacuously contained in every query of the same arity.
    """


class ExecutionInterrupted(ReproError):
    """Base class: a run was stopped before completing its task.

    Raised by the :mod:`repro.governance` layer when an
    :class:`~repro.governance.ExecutionBudget` resource is exhausted or a
    :class:`~repro.governance.CancelScope` is cancelled, and by the chase
    engine's legacy ``max_steps`` valve.  Interruption is *not* a verdict:
    the :class:`~repro.containment.bounded.ContainmentChecker` converts it into a
    three-valued ``UNKNOWN`` result, and an interrupted
    :class:`~repro.chase.engine.ChaseRun` stays resumable — call
    ``extend_to`` again (with a fresh budget) to continue where it
    stopped.

    ``budget_report`` carries the structured
    :class:`~repro.governance.BudgetReport` snapshot taken at the moment
    of interruption (``None`` for legacy raises that predate governance).
    """

    def __init__(self, message: str, *, budget_report=None):
        self.budget_report = budget_report
        super().__init__(message)


class ChaseBudgetExceeded(ExecutionInterrupted):
    """A chase run exceeded an explicit resource budget (steps or levels).

    This is an error only when the caller asked for an *exhaustive* chase;
    level-bounded chases used by the Theorem-12 checker treat the budget as
    the intended stopping point and never raise this.
    """


class BudgetExceeded(ChaseBudgetExceeded):
    """An :class:`~repro.governance.ExecutionBudget` resource ran out.

    Subclasses :class:`ChaseBudgetExceeded` so callers that already trap
    the legacy step-valve error also trap governed exhaustion; the
    attached ``budget_report`` names the exhausted resource (deadline,
    facts, memory or steps) and the consumption at the stop point.
    """


class ExecutionCancelled(ExecutionInterrupted):
    """A :class:`~repro.governance.CancelScope` was cancelled cooperatively.

    The cancelled operation polled its scope at a safe checkpoint, so the
    interrupted state (e.g. a :class:`~repro.chase.engine.ChaseRun`) is
    consistent and resumable.
    """


class ParseError(ReproError):
    """The F-logic Lite parser rejected its input."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class EncodingError(ReproError):
    """An F-logic statement could not be encoded into P_FL (or back)."""
