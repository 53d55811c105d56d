"""The containment service: admission, coalescing, warm scheduling.

:class:`ContainmentService` is the long-lived orchestrator the
:class:`repro.api.Engine` facade wraps.  One instance owns:

* a :class:`~repro.containment.bounded.ContainmentChecker` with its
  shared (thread-safe) :class:`~repro.containment.store.ChaseStore` —
  chase prefixes computed for one request are reused by every later
  request with the same canonical ``q1``;
* a :class:`~repro.service.pool.WorkerPool` — warm process workers that
  persist across ``check_all`` batches;
* an :class:`~repro.service.queue.AdmissionQueue` — the bounded
  concurrency gate that rejects overload explicitly and drains on
  :meth:`close`.

Request lifecycle: **admit** (or reject) → **coalesce** (identical
in-flight checks share one result future; same-``q1`` checks share one
ChaseRun through the store) → **schedule** (in-thread for ``check``,
warm pool for ``check_all``) → **govern** (service budget merged with
the per-request budget — requests can only tighten the envelope) →
**decide**.

Coalescing semantics: two concurrent :meth:`check` calls are *identical*
when their queries' canonical keys, resolved bound, schema, mode flags
and effective budget all match.  The first arrival (the leader) computes;
followers block on the leader's future and share its outcome — including
an exceptional one — and each follower increments the
``service.coalesce_hits`` counter.  Requests carrying a private
:class:`~repro.governance.CancelScope` bypass coalescing entirely: their
cancellation token must govern exactly one run.

Coalescing extends past the in-flight window: a **decided** verdict
(TRUE/FALSE — never UNKNOWN, whose meaning is "the budget ran out this
time") is remembered in a bounded LRU keyed by the same identity, so a
request identical to a *completed* one is answered without recomputation
(``service.result_hits``).  This is what makes a repeated ``check_all``
batch warm even when the first batch ran on the worker pool, whose chases
never reach the parent's store.

The LRU stores verdicts, not chases, and no request's objects either.
Its key spells both queries' canonical forms as one compact byte string
(exact, never a hash).  Its value is a
:class:`~repro.containment.result.CanonicalVerdict`: the decision fields
plus the witness and :class:`~repro.containment.result.Certificate` over
canonical variable ordinals — about 1 KB per entry.  A hit binds that
verdict to the *caller's* ``q1``/``q2``, so the result names the caller's
queries and variables and passes ``verify()`` for them.  Pool workers
detach their results before pickling them back, too.  Chases therefore
stay resident only in the chase store, bounded by
``StoreConfig.capacity``.  The leader of a ``check`` (and its coalesced
followers) still receives the full result with its ``chase_result``; a
cache hit or a pool-decided ``check_all`` element carries only the
certificate.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..containment.bounded import ContainmentChecker
from ..containment.result import CanonicalVerdict, ContainmentResult
from ..containment.store import ChaseStore
from ..core.atoms import Atom
from ..core.query import ConjunctiveQuery
from ..dependencies import SIGMA_FL
from ..dependencies.dependency import Dependency
from ..governance import CancelScope, ExecutionBudget
from ..obs import OBS_OFF, Observability
from ..store import StoreConfig
from .pool import WorkerPool
from .queue import AdmissionQueue

__all__ = ["ContainmentService", "ServiceStats"]


@dataclass
class ServiceStats:
    """Request-level counters of one :class:`ContainmentService`."""

    #: Single checks decided (leaders; coalesced followers not included).
    checks: int = 0
    #: ``check_all`` batches served.
    batches: int = 0
    #: Checks answered by piggybacking on an identical in-flight check.
    coalesced: int = 0
    #: Checks answered from the decided-result cache.
    result_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (stable keys, JSON-friendly)."""
        return {
            "checks": self.checks,
            "batches": self.batches,
            "coalesced": self.coalesced,
            "result_hits": self.result_hits,
        }


class ContainmentService:
    """Thread-safe, long-lived containment service.

    Parameters
    ----------
    dependencies:
        The constraint set Sigma (defaults to the paper's Sigma_FL).
    reorder_join, max_steps, anytime, store:
        Forwarded to the underlying
        :class:`~repro.containment.bounded.ContainmentChecker`.
    budget:
        Service-wide :class:`~repro.governance.ExecutionBudget` envelope.
        Per-request budgets are merged with it elementwise-min, so a
        request can tighten but never loosen the service's limits.
    max_active, max_pending:
        Admission limits (see :class:`~repro.service.queue.AdmissionQueue`).
    max_workers:
        Size of the warm process pool used by :meth:`check_all`.
    store_config:
        One :class:`~repro.store.StoreConfig` describing the whole
        storage stack — chase-store LRU capacity, optional persistent
        snapshot path + write-back policy, read-only attach, and the
        decided-verdict cache size.  Built only when *store* is ``None``;
        the serve layer shards share one ``path`` so a restarted fleet
        comes back warm.
    obs:
        Observability sink shared by the checker, store, pool and queue.
    kernel:
        Homomorphism-search kernel (``auto``/``dense``/``baseline``),
        forwarded to the checker; see :mod:`repro.kernel`.  The kernel's
        aggregate counters appear as the ``kernel`` section of
        :meth:`stats_dict`.
    """

    def __init__(
        self,
        dependencies: Sequence[Dependency] = SIGMA_FL,
        *,
        reorder_join: bool = True,
        max_steps: Optional[int] = 200_000,
        store: Optional[ChaseStore] = None,
        anytime: bool = True,
        budget: Optional[ExecutionBudget] = None,
        max_active: int = 8,
        max_pending: int = 64,
        max_workers: Optional[int] = None,
        store_config: Optional[StoreConfig] = None,
        obs: Optional[Observability] = None,
        kernel: str = "auto",
    ):
        self.obs = obs if obs is not None else OBS_OFF
        config = store_config if store_config is not None else StoreConfig()
        self.store_config = config
        if store is None:
            store = ChaseStore.from_config(
                dependencies,
                config,
                reorder_join=reorder_join,
                max_steps=max_steps,
                obs=obs,
            )
        self.checker = ContainmentChecker(
            dependencies,
            reorder_join=reorder_join,
            max_steps=max_steps,
            store=store,
            anytime=anytime,
            obs=obs,
            kernel=kernel,
        )
        self.budget = budget
        self.pool = WorkerPool(max_workers, obs=self.obs)
        self.queue = AdmissionQueue(
            max_active=max_active, max_pending=max_pending, obs=self.obs
        )
        self.stats = ServiceStats()
        self._inflight: dict[tuple, Future] = {}
        self._inflight_lock = threading.Lock()
        self._result_capacity = config.result_cache
        self._results: OrderedDict[tuple, CanonicalVerdict] = OrderedDict()
        self._closed = False

    # -- state ---------------------------------------------------------------

    @property
    def store(self) -> ChaseStore:
        """The shared chase store (thread-safe; reused across requests)."""
        return self.checker.store

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def inflight(self) -> int:
        """Distinct coalescable checks currently executing."""
        with self._inflight_lock:
            return len(self._inflight)

    @property
    def draining(self) -> bool:
        """Whether admissions have been closed (drain begun or completed)."""
        return self.queue.closed

    def stats_dict(self) -> dict[str, dict[str, int]]:
        """Every layer's counters in one JSON-friendly snapshot."""
        with self._inflight_lock:
            decided_cached = len(self._results)
        return {
            "service": dict(self.stats.as_dict(), decided_cached=decided_cached),
            "queue": self.queue.stats.as_dict(),
            "pool": self.pool.stats.as_dict(),
            "store": self.store.stats.as_dict(),
            "kernel": self.checker.kernel_stats.as_dict(),
        }

    # -- requests ------------------------------------------------------------

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
        """Decide ``q1 ⊆_Sigma q2`` through the service pipeline.

        Same contract as
        :meth:`~repro.containment.bounded.ContainmentChecker.check`, plus
        the service semantics: the call is admission-controlled (may
        raise :class:`~repro.core.errors.AdmissionRejected`), its budget
        is merged into the service envelope, and identical concurrent
        calls share one computation.
        """
        effective = self._effective_budget(budget)
        schema_t = tuple(schema) if schema is not None else None
        if scope is not None:
            # A private cancellation token must govern exactly one run —
            # never a shared one.  Skip coalescing.
            return self._run_check(
                q1, q2, level_bound, schema_t, explain, anytime, effective, scope
            )
        if self.queue.closed:
            # A draining service answers nothing — not even from cache.
            # Going through admit keeps the rejection reason and metric
            # uniform with every other refused request.
            with self.queue.admit(op="check"):
                pass  # pragma: no cover - admit raises first
        key = self._request_key(
            q1, q2, level_bound, schema_t, explain, anytime, effective
        )
        cached = self._recall(key, q1, q2, schema_t)
        if cached is not None:
            with self.obs.tracer.span(
                "service.check", q1=q1.name, q2=q2.name, cached=True
            ):
                return cached
        with self._inflight_lock:
            future = self._inflight.get(key)
            leader = future is None
            if leader:
                future = self._inflight[key] = Future()
        if not leader:
            self.stats.coalesced += 1
            self._count("service.coalesce_hits")
            tracer = self.obs.tracer
            with tracer.span(
                "service.check", q1=q1.name, q2=q2.name, coalesced=True
            ):
                return future.result()
        try:
            result = self._run_check(
                q1, q2, level_bound, schema_t, explain, anytime, effective, None
            )
        except BaseException as exc:
            future.set_exception(exc)
            raise
        else:
            self._remember(key, result)
            future.set_result(result)
            return result
        finally:
            with self._inflight_lock:
                self._inflight.pop(key, None)

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
        """Decide a batch of pairs on the warm pool (one admission slot).

        The batch counts as a single admitted request.  With
        ``parallel=True`` (the default) distinct chase groups fan out to
        the service's *warm* :class:`~repro.service.pool.WorkerPool` —
        after the first batch, later batches reuse the running workers,
        groups already covered by the shared store never leave the
        parent process, and pairs whose verdict the service has already
        decided are answered from the result cache without dispatch.
        """
        pairs = list(pairs)
        effective = self._effective_budget(budget)
        schema_t = tuple(schema) if schema is not None else None
        keys = [
            self._request_key(
                q1, q2, level_bound, schema_t, False, anytime, effective
            )
            for q1, q2 in pairs
        ]
        results: list[Optional[ContainmentResult]] = [
            self._recall(key, q1, q2, schema_t)
            for key, (q1, q2) in zip(keys, pairs)
        ]
        cold = [i for i, cached in enumerate(results) if cached is None]
        with self.queue.admit(op="check_all"):
            self.stats.batches += 1
            with self.obs.tracer.span(
                "service.check_all", pairs=len(pairs), cached=len(pairs) - len(cold)
            ):
                if cold:
                    decided = self.checker.check_all(
                        [pairs[i] for i in cold],
                        level_bound=level_bound,
                        schema=schema,
                        anytime=anytime,
                        budget=effective,
                        parallel=parallel,
                        pool=self.pool if parallel else None,
                    )
                    for i, result in zip(cold, decided):
                        results[i] = result
                        self._remember(keys[i], result)
        return results

    def chase_prefix(self, query: ConjunctiveQuery, level_bound: int):
        """Chase *query* to *level_bound* through the shared store."""
        with self.queue.admit(op="chase"):
            with self.obs.tracer.span(
                "service.chase", query=query.name, bound=level_bound
            ):
                return self.checker.chase_prefix(query, level_bound)

    # -- lifecycle -----------------------------------------------------------

    def healthcheck(self) -> bool:
        """Probe the warm pool; a failing pool is recycled. True = healthy."""
        return self.pool.healthcheck()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, let in-flight requests finish; keep the pool.

        The first half of :meth:`close`: new requests are rejected with
        reason ``"draining"`` immediately, requests already admitted run
        to completion.  Unlike :meth:`close` the warm pool stays up, so
        a drained service can still be inspected (``stats_dict``) before
        the final :meth:`close` joins the workers — the handshake the
        serve layer's ``drain`` op is built on.  Returns ``True`` when
        the queue emptied within *timeout* seconds.
        """
        return self.queue.drain(timeout=timeout)

    def close(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: drain the queue, then join the workers.

        New requests are rejected (reason ``"draining"``) immediately;
        requests already admitted run to completion (up to *timeout*
        seconds, ``None`` = forever), after which the warm pool's worker
        processes are joined.  Returns ``True`` when the queue emptied in
        time.  Idempotent.
        """
        drained = self.queue.drain(timeout=timeout)
        self.pool.close(wait=True)
        # Flush in-memory chase runs to the snapshot tier and detach the
        # database (no-op for memory-only stores) — a restarted service
        # pointed at the same path comes back warm.
        self.store.close()
        self._closed = True
        return drained

    def __enter__(self) -> "ContainmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- helpers -------------------------------------------------------------

    def _effective_budget(
        self, request_budget: Optional[ExecutionBudget]
    ) -> Optional[ExecutionBudget]:
        """Service envelope ∧ request budget (elementwise-min inheritance)."""
        if self.budget is None:
            return request_budget
        return self.budget.merged(request_budget)

    def _request_key(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        level_bound: Optional[int],
        schema_t: Optional[tuple[Atom, ...]],
        explain: bool,
        anytime: Optional[bool],
        budget: Optional[ExecutionBudget],
    ) -> tuple:
        """The request's coalescing identity.

        Two requests with equal keys are the same question asked the same
        way — canonical query keys (names and variable spellings don't
        matter), resolved schedule, bound, schema and effective budget.
        The two canonical keys travel as one compact byte string
        (:func:`_pair_key_bytes`), so a cached entry does not keep their
        nested tuples alive.
        """
        return (
            _pair_key_bytes(q1, q2),
            level_bound,
            schema_t,
            explain,
            self.checker.anytime if anytime is None else anytime,
            budget,
        )

    def _recall(
        self,
        key: tuple,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        schema_t: Optional[tuple[Atom, ...]],
    ) -> Optional[ContainmentResult]:
        """The decided verdict for *key* bound to the caller's pair, or ``None``.

        The result names *q1* (with *schema_t* conjoined, as a computed
        result would) and *q2*, and its witness and certificate are
        spelled in their variables.
        """
        with self._inflight_lock:
            verdict = self._results.get(key)
            if verdict is None:
                return None
            self._results.move_to_end(key)
        self.stats.result_hits += 1
        self._count("service.result_hits")
        return verdict.bind(self.checker._apply_schema(q1, schema_t), q2)

    def _remember(self, key: tuple, result: ContainmentResult) -> None:
        """Cache a decided verdict (UNKNOWN means "ran out of budget this
        time" and is deliberately never cached).

        The entry is the result's :class:`CanonicalVerdict`: O(|q2|)
        evidence over canonical ordinals, never the chase and never the
        request's query objects.
        """
        if self._result_capacity <= 0 or result.unknown:
            return
        verdict = CanonicalVerdict(result)
        with self._inflight_lock:
            self._results[key] = verdict
            self._results.move_to_end(key)
            while len(self._results) > self._result_capacity:
                self._results.popitem(last=False)

    def _run_check(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        level_bound: Optional[int],
        schema: Optional[tuple[Atom, ...]],
        explain: bool,
        anytime: Optional[bool],
        budget: Optional[ExecutionBudget],
        scope: Optional[CancelScope],
    ) -> ContainmentResult:
        with self.queue.admit(op="check"):
            self.stats.checks += 1
            with self.obs.tracer.span(
                "service.check", q1=q1.name, q2=q2.name, coalesced=False
            ):
                return self.checker.check(
                    q1,
                    q2,
                    level_bound=level_bound,
                    schema=schema,
                    explain=explain,
                    anytime=anytime,
                    budget=budget,
                    scope=scope,
                )

    def _count(self, name: str, **labels: str) -> None:
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.counter(name, **labels).inc()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ContainmentService({state}, queue={self.queue!r}, "
            f"pool={self.pool!r})"
        )


def _pair_key_bytes(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> bytes:
    """Both canonical keys as one exact, compact byte string.

    Each query is written as its head terms followed by ``|``-led atoms;
    ``#`` separates the two queries.  A variable is ``v<ordinal>``, a null
    ``n<index>``, and a constant or predicate name is length-prefixed
    (``c<len>:<name>``, ``|<len>:<name>``), so any name round-trips and the
    encoding is injective: equal bytes mean equal canonical keys.
    """
    parts: list[str] = []
    for query in (q1, q2):
        if parts:
            parts.append("#")
        head, body = query.canonical_key()
        _encode_terms(head, parts)
        for predicate, args in body:
            parts.append(f"|{len(predicate)}:{predicate}")
            _encode_terms(args, parts)
    return "".join(parts).encode()


def _encode_terms(terms: tuple, parts: list[str]) -> None:
    for kind, value in terms:
        if kind == "c":
            parts.append(f"c{len(value)}:{value}")
        else:
            parts.append(f"{kind}{value}")
