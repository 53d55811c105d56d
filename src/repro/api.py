"""repro.api — the stable public facade of the containment engine.

One import, one object::

    from repro.api import Engine

    with Engine() as engine:
        result = engine.check(q1, q2)

:class:`Engine` consolidates the entry points that used to be scattered
across :mod:`repro.containment`, :mod:`repro.chase`,
:mod:`repro.governance` and :mod:`repro.obs`: configuration (constraint
set, budget envelope, store, observability, pool/queue sizing) is given
**once** at construction, and every method call flows through the same
long-lived :class:`~repro.service.engine.ContainmentService` — shared
chase store, warm worker pool, admission control and request coalescing
included.

The one-shot helpers (:func:`repro.is_contained`,
``ContainmentChecker``) remain available for scripts, but anything that
issues more than a handful of checks should hold an :class:`Engine`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .chase.engine import ChaseResult
from .containment.bounded import ContainmentChecker
from .containment.result import ContainmentResult
from .containment.store import ChaseStore
from .core.atoms import Atom
from .core.query import ConjunctiveQuery
from .dependencies import SIGMA_FL
from .dependencies.dependency import Dependency
from .governance import CancelScope, ExecutionBudget
from .obs import Observability
from .service.engine import ContainmentService
from .store import StoreConfig

__all__ = ["Engine", "StoreConfig"]


class Engine:
    """The facade: a configured, reusable containment engine.

    Construction wires the whole stack; the instance is thread-safe and
    intended to live as long as the application (use it as a context
    manager, or call :meth:`close` yourself).

    Parameters
    ----------
    dependencies:
        Constraint set Sigma; defaults to the paper's Sigma_FL.
    anytime:
        Default decision schedule — the interleaved anytime procedure
        (``True``) or the monolithic chase-then-search (``False``).
        Overridable per call.
    reorder_join, max_steps, store:
        Chase configuration, forwarded to the underlying checker/store.
    budget:
        Service-wide :class:`~repro.governance.ExecutionBudget` envelope;
        per-call budgets merge into it and can only tighten it.
    max_active, max_pending:
        Admission limits: concurrent executing requests / waiting
        requests before explicit rejection.
    max_workers:
        Warm process-pool size for :meth:`check_all` batches.
    store_config:
        The engine's whole storage stack in one
        :class:`~repro.store.StoreConfig`: chase-store LRU capacity, an
        optional persistent snapshot ``path`` (+ write-back
        ``snapshot_policy`` / ``read_only`` attach), and the
        decided-verdict ``result_cache`` size.  With a ``path``, chase
        work survives restarts, parallel ``check_all`` workers attach to
        the database zero-pickle, and the serve layer's shards share one
        warm store directory.  Ignored for the chase tier when an
        explicit *store* is given.
    obs:
        :class:`~repro.obs.Observability` sink for spans and metrics of
        every layer (store, pool, queue, service).
    kernel:
        Homomorphism-search kernel: ``"auto"`` (default) runs witness
        searches on the dense bitset kernel (:mod:`repro.kernel`) with
        transparent fallback, ``"baseline"`` forces the classic
        backtracking search, ``"dense"`` insists on the dense path.
        Verdicts are identical under every setting.
    """

    def __init__(
        self,
        dependencies: Sequence[Dependency] = SIGMA_FL,
        *,
        anytime: bool = True,
        reorder_join: bool = True,
        max_steps: Optional[int] = 200_000,
        store: Optional[ChaseStore] = None,
        budget: Optional[ExecutionBudget] = None,
        max_active: int = 8,
        max_pending: int = 64,
        max_workers: Optional[int] = None,
        store_config: Optional[StoreConfig] = None,
        obs: Optional[Observability] = None,
        kernel: str = "auto",
    ):
        self._service = ContainmentService(
            dependencies,
            reorder_join=reorder_join,
            max_steps=max_steps,
            store=store,
            anytime=anytime,
            budget=budget,
            max_active=max_active,
            max_pending=max_pending,
            max_workers=max_workers,
            store_config=store_config,
            obs=obs,
            kernel=kernel,
        )

    # -- the API -------------------------------------------------------------

    def check(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        *,
        level_bound: Optional[int] = None,
        schema: Optional[Iterable[Atom]] = None,
        explain: bool = False,
        anytime: Optional[bool] = None,
        budget: Optional[ExecutionBudget] = None,
        scope: Optional[CancelScope] = None,
    ) -> ContainmentResult:
        """Decide ``q1 ⊆_Sigma q2``.

        Returns a three-valued
        :class:`~repro.containment.result.ContainmentResult` (TRUE /
        FALSE / UNKNOWN-under-budget).  Identical concurrent calls are
        coalesced onto one computation; chase work is cached in the
        shared store for every later call with the same ``q1``.  Raises
        :class:`~repro.core.errors.AdmissionRejected` under overload or
        during shutdown.
        """
        return self._service.check(
            q1,
            q2,
            level_bound=level_bound,
            schema=schema,
            explain=explain,
            anytime=anytime,
            budget=budget,
            scope=scope,
        )

    def check_all(
        self,
        pairs: Iterable[tuple[ConjunctiveQuery, ConjunctiveQuery]],
        *,
        level_bound: Optional[int] = None,
        schema: Optional[Iterable[Atom]] = None,
        anytime: Optional[bool] = None,
        budget: Optional[ExecutionBudget] = None,
        parallel: bool = True,
    ) -> list[ContainmentResult]:
        """Decide a batch of pairs, fanning cold chase groups out to the
        engine's warm worker pool; results come back in input order.
        """
        return self._service.check_all(
            pairs,
            level_bound=level_bound,
            schema=schema,
            anytime=anytime,
            budget=budget,
            parallel=parallel,
        )

    def chase(self, query: ConjunctiveQuery, level_bound: int) -> ChaseResult:
        """Chase *query*'s canonical database to *level_bound* levels.

        Served from (and cached in) the engine's shared store: a prefix
        computed at a larger bound is reused, a smaller one is extended
        in place.
        """
        return self._service.chase_prefix(query, level_bound)

    def explain(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        *,
        level_bound: Optional[int] = None,
        schema: Optional[Iterable[Atom]] = None,
        anytime: Optional[bool] = None,
        budget: Optional[ExecutionBudget] = None,
    ) -> ContainmentResult:
        """:meth:`check` with decision provenance attached.

        Shorthand for ``check(..., explain=True)``; see
        :meth:`ContainmentResult.explain_data
        <repro.containment.result.ContainmentResult.explain_data>`.
        """
        return self._service.check(
            q1,
            q2,
            level_bound=level_bound,
            schema=schema,
            explain=True,
            anytime=anytime,
            budget=budget,
        )

    # -- lifecycle & introspection -------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting new work; wait for in-flight requests.

        New requests are rejected with
        :class:`~repro.core.errors.AdmissionRejected` (reason
        ``"draining"``) from the moment this is called; requests already
        admitted run to completion.  The warm pool stays up until
        :meth:`close`, so a drained engine still answers ``stats()`` —
        this is the per-shard half of the serve layer's graceful
        ``drain`` op.  Returns ``True`` when everything in flight
        finished within *timeout* seconds.
        """
        return self._service.drain(timeout=timeout)

    def close(self, timeout: Optional[float] = None) -> bool:
        """Drain in-flight requests, then join the warm pool's workers.

        Returns ``True`` when everything drained within *timeout*
        seconds (``None`` = wait forever).  After ``close`` the engine
        rejects new requests.  Idempotent.
        """
        return self._service.close(timeout=timeout)

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def service(self) -> ContainmentService:
        """The underlying service (pool, queue, coalescing internals)."""
        return self._service

    @property
    def checker(self) -> ContainmentChecker:
        """The underlying checker — an escape hatch for advanced callers."""
        return self._service.checker

    @property
    def store(self) -> ChaseStore:
        """The shared chase store."""
        return self._service.store

    @property
    def store_config(self) -> StoreConfig:
        """The resolved storage configuration this engine runs under."""
        return self._service.store_config

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has released the worker pool."""
        return self._service.closed

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` (or :meth:`close`) stopped admissions."""
        return self._service.draining

    def stats(self) -> dict[str, dict[str, int]]:
        """Counters of every layer: service, queue, pool, store, kernel."""
        return self._service.stats_dict()

    def __repr__(self) -> str:
        return f"Engine({self._service!r})"
