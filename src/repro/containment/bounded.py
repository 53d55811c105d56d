"""The paper's containment decision procedure (Theorems 4, 12 and 13).

``q1 ⊆_{Sigma_FL} q2`` holds iff a homomorphism sends ``body(q2)`` into
``chase_{Sigma_FL}(q1)`` and ``head(q2)`` onto ``head(chase(q1))``
(Theorem 4).  The chase may be infinite, but Theorem 12 caps the search:
it suffices to examine the first

    ``|q2| * delta``  levels, where  ``delta = 2 * |q1|``.

Every decision runs one probe loop over a resumable
:class:`~repro.chase.engine.ChaseRun`: chase to the next probe level,
search for a witness, stop at a witness or at the bound.  The probe
schedule is the only thing the two modes change.  Theorem 12's own
procedure, ``anytime=False`` (the CLI's ``--no-anytime``), is the
one-probe schedule ``[bound]`` with one full search.  The default
**anytime** schedule probes an initial exact window of levels, then
geometrically growing strides, and after each extension runs a
*delta-restricted* homomorphism search
(:mod:`repro.homomorphism.incremental`) over only the embeddings that
touch the newly added conjuncts.  A witness at any level is sound (hom
existence is monotone in the prefix — see ``docs/paper_mapping.md``,
"Anytime early termination"), so positive decisions exit at the witness
level; only negative decisions materialise the whole Theorem-12 prefix.
Both schedules decide exactly the same relation.

Chase work is shared through a :class:`~repro.containment.store.ChaseStore`
session: chases are keyed on the query's canonical (alpha-invariant) form
and stored as resumable runs, so a check at a larger bound *extends* the
stored prefix instead of re-chasing, and rename-apart variants of one
query share a single chase.  :meth:`ContainmentChecker.check_all` batches
many pairs: pairs are grouped by ``q1`` and each group shares one chase
session — and because groups are independent, ``parallel=True`` farms
them across a process pool with deterministic, input-order results.
"""

from __future__ import annotations

import time
from typing import Iterable, Iterator, Optional, Sequence

from ..chase.engine import ChaseResult, ChaseRun
from ..core.atoms import Atom
from ..core.errors import ExecutionCancelled, ExecutionInterrupted, QueryError
from ..core.query import ConjunctiveQuery
from ..dependencies.dependency import Dependency
from ..dependencies.sigma_fl import SIGMA_FL
from ..governance.budget import CancelScope, ExecutionBudget, Governor
from ..governance.faults import Fault, FaultInjector
from ..datalog.matching import resolve_kernel
from ..homomorphism.incremental import find_homomorphism_delta
from ..homomorphism.search import SearchStats, find_homomorphism
from ..kernel.telemetry import KernelTelemetry
from ..obs import Observability
from ..service.pool import POOL_TIMEOUT_GRACE, WorkerPool
from ..service.pool import check_group_attached as _check_group_attached
from ..service.pool import check_group_worker as _check_group_worker
from .result import ContainmentReason, ContainmentResult
from .store import ChaseStore

__all__ = ["theorem12_bound", "is_contained", "ContainmentChecker"]

# The pool timeout grace and the two group workers are read through this
# module's globals at dispatch time, so tests can monkeypatch them here.

#: Levels the anytime schedule probes one by one before switching to
#: geometrically growing strides.  Witnesses cluster at the first chase
#: levels (Lemmas 5/9 locality; levels 0-2 across every corpus here), so
#: a small exact window keeps positive exits at the precise witness level
#: while a negative decision's long refutation tail costs O(log bound)
#: probes instead of O(bound).
ANYTIME_EXACT_WINDOW = 4

#: Stride multiplier past the exact window.  Each tail probe (chase
#: segment + witness search) has a fixed cost, so the factor trades probe
#: count against how far past a mid-level witness the chase may
#: materialise; 4 keeps the tail at a handful of probes while staying
#: within a constant factor of any witness level.
ANYTIME_STRIDE_FACTOR = 4

#: A probe uses the delta-restricted search only while
#: ``len(delta) * ANYTIME_DELTA_MAX_SHARE <= len(instance)``.  Anchoring
#: every body position on every delta atom beats a full search when the
#: delta is a sliver of the prefix (the exact-window case), but loses
#: badly once a stride's delta is a sizable fraction of it — there a
#: plain full search over the prefix is cheaper than the sum of its
#: anchored restrictions.
ANYTIME_DELTA_MAX_SHARE = 4


def theorem12_bound(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> int:
    """The Theorem-12 level bound ``|q2| * 2 * |q1|``."""
    return q2.size * 2 * q1.size


def probe_levels(bound: int, anytime: bool) -> Iterator[int]:
    """The chase levels a decision probes, ending at *bound*.

    ``anytime=False`` is Theorem 12's one-probe schedule ``[bound]``.
    ``anytime=True`` probes levels ``0 .. ANYTIME_EXACT_WINDOW - 1`` one
    by one, then strides growing by :data:`ANYTIME_STRIDE_FACTOR`, capped
    at *bound*.
    """
    if not anytime:
        yield bound
        return
    level = 0
    stride = 1
    while True:
        yield level
        if level >= bound:
            return
        if level + 1 >= ANYTIME_EXACT_WINDOW:
            stride *= ANYTIME_STRIDE_FACTOR
        level = min(level + stride, bound)


class ContainmentChecker:
    """Reusable checker: fixed dependency set, per-call query pairs.

    Parameters
    ----------
    dependencies:
        The constraint set; defaults to Sigma_FL.  The Theorem-12 bound is
        proved for Sigma_FL — for other dependency sets pass an explicit
        ``level_bound`` to :meth:`check` (or accept that the default
        formula is only a heuristic there).
    reorder_join:
        Forwarded to the chase and homomorphism engines (ablation D4).
    max_steps:
        Forwarded to the chase engine's safety valve.
    store:
        An existing :class:`ChaseStore` to draw chases from.  Pass one
        store to several checkers (or to minimisation / UCQ containment)
        to share the chase pool; by default the checker owns a private
        store configured from the other parameters.
    anytime:
        Default probe schedule.  ``True`` (the default) interleaves
        chase extension with delta-restricted witness search and exits
        positives at the witness level; ``False`` probes once, at the
        full bound, with one full search.  Either way the decided
        relation is identical; :meth:`check` takes a per-call override.
    obs:
        Observability sink: every :meth:`check` opens a
        ``containment.check`` span, each witness search a nested
        ``hom.search`` span, and the homomorphism node/backtrack counters
        feed the metrics registry (anytime mode adds the
        ``containment.early_exit`` and ``hom.delta_searches`` counters).
        When the checker builds its own store, the store (and hence the
        chase engine) inherits the sink.
    budget:
        Default :class:`~repro.governance.ExecutionBudget` governing every
        check (overridable per call).  A budget-stopped check returns an
        ``UNKNOWN`` :class:`ContainmentResult` instead of raising; with no
        budget, scope or fault plan configured the governed code paths are
        skipped entirely (``governor is None``), costing nothing.
    faults:
        Optional plan of :class:`~repro.governance.Fault` records; the
        checker builds one :class:`~repro.governance.FaultInjector` from
        it and fires it at every governor poll site.  Test-only.
    kernel:
        Homomorphism-search implementation for every witness search this
        checker runs: ``"auto"`` (the default) uses the dense bitset
        kernel (:mod:`repro.kernel`) whenever it applies and falls back
        to the baseline backtracking search transparently; ``"dense"``
        and ``"baseline"`` force the respective path (``dense`` still
        falls back when structurally impossible).  The decided relation,
        witnesses modulo search order, ContainmentResult fields and
        governor semantics are identical under every setting — only the
        search's internal representation changes.  Aggregate kernel
        counters are exposed as :attr:`kernel_stats` and through the
        ``hom.kernel_nodes`` / ``hom.bitset_ops`` /
        ``kernel.intern_symbols`` metrics.
    """

    def __init__(
        self,
        dependencies: Sequence[Dependency] = SIGMA_FL,
        *,
        reorder_join: bool = True,
        max_steps: Optional[int] = 200_000,
        store: Optional[ChaseStore] = None,
        anytime: bool = True,
        obs: Optional[Observability] = None,
        budget: Optional[ExecutionBudget] = None,
        faults: Optional[Sequence[Fault]] = None,
        kernel: str = "auto",
    ):
        if store is None:
            store = ChaseStore(
                dependencies,
                reorder_join=reorder_join,
                max_steps=max_steps,
                obs=obs,
            )
        self.store = store
        self.obs = obs if obs is not None else store.obs
        self.dependencies = store.dependencies
        self.reorder_join = reorder_join
        self.max_steps = max_steps
        self.anytime = anytime
        self.budget = budget
        self.fault_plan: Optional[tuple[Fault, ...]] = (
            tuple(faults) if faults else None
        )
        self.fault_injector: Optional[FaultInjector] = (
            FaultInjector(self.fault_plan) if self.fault_plan else None
        )
        self.kernel = resolve_kernel(kernel)
        #: Aggregate dense-kernel counters across every decision this
        #: checker made (surfaced by the service layer's ``stats`` op).
        self.kernel_stats = KernelTelemetry()

    @property
    def stats(self):
        """The shared store's hit/miss/extend counters."""
        return self.store.stats

    # -- chase -------------------------------------------------------------

    def chase_prefix(self, query: ConjunctiveQuery, level_bound: int) -> ChaseResult:
        """Chase *query* up to *level_bound* levels via the shared store.

        Lookup is one O(1) probe keyed on the query's canonical form — a
        cached prefix computed at a larger bound (or one that saturated or
        failed) is reused directly, and a prefix computed at a *smaller*
        bound is incrementally extended, never re-chased.
        """
        run, _ = self.store.run_for(query, level_bound)
        return run.result()

    # -- decision ------------------------------------------------------------

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
        """Decide ``q1 ⊆_Sigma q2`` — or report UNKNOWN under governance.

        *level_bound* overrides the Theorem-12 bound — used by the E8
        bound-stability experiment and required for non-Sigma_FL
        dependency sets.

        *anytime* overrides the checker-level schedule for this call:
        ``True`` interleaves chase and delta search (positives exit at the
        witness level, recorded as ``result.witness_level``), ``False``
        probes once, at the full bound.

        *budget* (defaulting to the checker-level budget) and *scope*
        govern the call: when the budget runs out or the scope is
        cancelled before a witness is found or the full bound is
        searched, the result is **UNKNOWN** (``result.unknown`` true,
        reason ``BUDGET_EXHAUSTED``/``CANCELLED``) with the
        :class:`~repro.governance.BudgetReport` and ``levels_chased``
        attached — never a guessed decision, never an exception.  The
        underlying chase session stays in the store, so re-checking with
        a fresh budget resumes instead of restarting.

        *explain* attaches a decision-provenance payload to the result
        (witness chase levels, per-level fact counts, rule-firing
        sequence); see :meth:`ContainmentResult.explain_data`.

        *schema* makes the containment **relative**: the quantification
        runs over databases that satisfy Sigma_FL *and contain the given
        ground atoms* (typically an ontology's class hierarchy and
        signatures).  Implemented by conjoining the schema to ``body(q1)``
        before chasing — the canonical database of the combined query is
        universal for exactly those databases.  ``q1 ⊆ q2`` relative to a
        schema is weaker than absolute containment: e.g. ``B:book``
        implies ``B:publication`` only relative to a schema containing
        ``book::publication``.  The conjoined schema is part of the
        chase-cache key, so checks against different schemas never share
        (or contaminate) a cached prefix.
        """
        q1 = self._apply_schema(q1, schema)
        self._require_equal_arity(q1, q2)
        use_anytime = self.anytime if anytime is None else anytime
        bound = theorem12_bound(q1, q2) if level_bound is None else level_bound
        return self._checked(
            q1, q2, bound, use_anytime, explain=explain, budget=budget, scope=scope
        )

    def _checked(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        bound: int,
        anytime: bool,
        *,
        explain: bool = False,
        budget: Optional[ExecutionBudget] = None,
        scope: Optional[CancelScope] = None,
        chase_to: int = 0,
    ) -> ContainmentResult:
        """One prepared (schema-applied, bound-resolved) decision.

        The single funnel every decision goes through: opens the
        ``containment.check`` span, builds the governor (``None`` when the
        call is ungoverned — the zero-overhead path), runs the probe loop
        of :func:`probe_levels` ``(bound, anytime)`` inside ``q1``'s
        store session, and converts
        :class:`~repro.core.errors.ExecutionInterrupted` into an UNKNOWN
        result.

        *chase_to* asks the first chase extension to reach at least that
        level, while the witness search still sees only the first *bound*
        levels.  A monolithic batch group uses it to chase once, to its
        largest bound, on its first pair.

        The session coalesces concurrent same-key checks onto one chase
        extension (the waiter resumes against the materialised prefix),
        and the run cannot be evicted mid-decision.
        """
        tracer = self.obs.tracer
        governor = self._make_governor(budget, scope)
        with tracer.span(
            "containment.check", q1=q1.name, q2=q2.name, anytime=anytime
        ) as span:
            start = time.perf_counter()
            try:
                with self.store.session(q1, max(bound, chase_to)) as (run, outcome):
                    result = self._probe(
                        q1, q2, bound, anytime, run, outcome, start,
                        governor=governor, chase_to=chase_to,
                    )
                    if explain:
                        result.explain_data()
            except ExecutionInterrupted as exc:
                result = self._unknown_result(q1, q2, bound, start, exc, governor)
            if tracer.enabled:
                span.set(
                    contained=result.contained,
                    reason=result.reason.value,
                    bound=bound,
                    chase_outcome=result.chase_outcome,
                    witness_level=result.witness_level,
                )
        return result

    def _probe(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        bound: int,
        anytime: bool,
        run: ChaseRun,
        outcome: str,
        start: float,
        *,
        governor: Optional[Governor],
        chase_to: int,
    ) -> ContainmentResult:
        """The probe loop proper — the caller holds ``q1``'s session.

        The loop invariant after probing level ``k``: every embedding of
        ``body(q2)`` into the current level-``k`` prefix satisfying the
        head condition has been explored.  The first probe runs a full
        search.  Later probes search only the delta since the previous
        probe: levels already materialised by a cached run contribute
        their per-level atom sets, freshly chased levels their
        :attr:`~repro.chase.engine.ChaseRun.segment_deltas` (which also
        carry EGD-rewritten lower-level conjuncts).  A segment that
        rewrote the chased head invalidates earlier seeds, and a delta
        that is a bulk share of the prefix
        (:data:`ANYTIME_DELTA_MAX_SHARE`) is cheaper to search in full;
        both probes fall back to one full search.
        """
        metrics = self.obs.metrics
        tracer = self.obs.tracer
        if metrics is not None:
            metrics.counter("containment.checks").inc()
        chase_before = run.elapsed_seconds
        search_stats = self._make_search_stats(tracer, metrics)
        witness = None
        first_search = True
        prev_level = -1
        for level in probe_levels(bound, anytime):
            if governor is not None:
                governor.poll("containment.probe", facts=len(run.instance))
            target = max(level, chase_to)
            extended_from = None
            if not run.covers(target):
                extended_from = len(run.segment_deltas)
                run.extend_to(target, governor=governor)
            if run.failed:
                return self._failure_result(
                    q1, q2, bound, run, outcome, start,
                    run.elapsed_seconds - chase_before,
                )
            instance = run.instance
            delta: Optional[list[Atom]] = None  # None = full search
            if not first_search:
                if extended_from is None:
                    delta = [
                        atom
                        for lvl in range(prev_level + 1, level + 1)
                        for atom in instance.atoms_at_level(lvl)
                    ]
                elif not any(run.segment_head_rewrites[extended_from:]):
                    delta = [
                        atom
                        for segment in run.segment_deltas[extended_from:]
                        for atom in segment
                    ]
                if delta and len(delta) * ANYTIME_DELTA_MAX_SHARE > len(instance):
                    delta = None
            first_search = False
            prefix = (
                instance.up_to_level(level)
                if instance.max_level() > level
                else instance.index
            )
            # An empty delta adds no embeddings: skip the search entirely.
            if delta is None or delta:
                with tracer.span(
                    "hom.search", source=q2.name, target=q1.name, level=level
                ) as span:
                    if delta is None:
                        witness = find_homomorphism(
                            q2,
                            prefix,
                            head_target=instance.head,
                            reorder=self.reorder_join,
                            stats=search_stats,
                            governor=governor,
                            kernel=self.kernel,
                        )
                    else:
                        witness = find_homomorphism_delta(
                            q2,
                            prefix,
                            delta,
                            head_target=instance.head,
                            reorder=self.reorder_join,
                            stats=search_stats,
                            governor=governor,
                            kernel=self.kernel,
                        )
                    if tracer.enabled and search_stats is not None:
                        span.set(
                            found=witness is not None,
                            delta=delta is not None,
                            delta_size=len(delta or ()),
                        )
                if metrics is not None:
                    metrics.counter("hom.searches").inc()
                    if delta is not None:
                        metrics.counter("hom.delta_searches").inc()
            if witness is not None:
                break
            if (run.saturated or run.covers(bound)) and level >= instance.max_level():
                # Nothing above this level exists or ever will: the
                # remaining bound levels are vacuously searched.
                break
            prev_level = level
        if metrics is not None and search_stats is not None:
            metrics.counter("hom.nodes_expanded").inc(search_stats.nodes)
            metrics.counter("hom.backtracks").inc(search_stats.backtracks)
        self._publish_kernel_stats(search_stats, metrics)
        chase_result = run.result()
        if witness is not None and level < bound and metrics is not None:
            metrics.counter("containment.early_exit").inc()
        return ContainmentResult(
            q1=q1,
            q2=q2,
            contained=witness is not None,
            reason=(
                ContainmentReason.HOMOMORPHISM
                if witness is not None
                else ContainmentReason.NO_HOMOMORPHISM
            ),
            witness=witness,
            chase_result=chase_result,
            level_bound=bound,
            elapsed_seconds=time.perf_counter() - start,
            chase_outcome=outcome,
            witness_level=level if anytime and witness is not None else None,
            levels_chased=(
                level if anytime else min(level, chase_result.level_reached)
            ),
            shared_chase_seconds=run.elapsed_seconds - chase_before,
        )

    def _make_governor(
        self,
        budget: Optional[ExecutionBudget],
        scope: Optional[CancelScope],
    ) -> Optional[Governor]:
        """The call's governor, or ``None`` for the ungoverned fast path."""
        budget = budget if budget is not None else self.budget
        faults = self.fault_injector
        if budget is None and scope is None and faults is None:
            return None
        return Governor(budget, scope=scope, obs=self.obs, faults=faults)

    def _unknown_result(
        self,
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        bound: int,
        start: float,
        exc: ExecutionInterrupted,
        governor: Optional[Governor],
    ) -> ContainmentResult:
        """Degrade a governed interruption into an UNKNOWN result.

        Soundness: a Theorem-12 decision needs a positive witness or a
        completely searched bound-level prefix.  The interrupted check has
        neither, so the only honest answer is UNKNOWN — ``contained`` is
        conservatively False (the result is falsy) but ``reason`` marks it
        as a non-decision.  The partial chase run (if any) is attached as
        evidence and remains in the store for a future resume.
        """
        report = exc.budget_report
        if report is None and governor is not None:
            report = governor.report()
        reason = (
            ContainmentReason.CANCELLED
            if isinstance(exc, ExecutionCancelled)
            else ContainmentReason.BUDGET_EXHAUSTED
        )
        run = self.store.peek(q1)
        chase_result = run.result() if run is not None else None
        levels_chased = max(run.bound, 0) if run is not None else None
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.counter("containment.unknown", reason=reason.value).inc()
        return ContainmentResult(
            q1=q1,
            q2=q2,
            contained=False,
            reason=reason,
            chase_result=chase_result,
            level_bound=bound,
            elapsed_seconds=time.perf_counter() - start,
            levels_chased=levels_chased,
            budget_report=report,
        )

    def check_all(
        self,
        pairs: Iterable[tuple[ConjunctiveQuery, ConjunctiveQuery]],
        *,
        level_bound: Optional[int] = None,
        schema: Optional[Iterable[Atom]] = None,
        anytime: Optional[bool] = None,
        parallel: bool = False,
        max_workers: Optional[int] = None,
        budget: Optional[ExecutionBudget] = None,
        worker_faults: Optional[Sequence[Fault]] = None,
        pool: Optional[WorkerPool] = None,
    ) -> list[ContainmentResult]:
        """Decide many ``q1 ⊆ q2`` pairs, chasing each distinct ``q1`` once.

        The batch pipeline groups pairs by the canonical form of ``q1``
        and decides each pair through the same funnel as :meth:`check`,
        so consecutive pairs of a group share one stored chase session.
        In monolithic mode (``anytime=False``) the group's first pair
        chases to the *maximum* bound any of its pairs needs, and every
        later pair searches a level view of that one prefix.  In anytime
        mode (the default) every pair drives the session only as far as
        its own witness needs, so a group whose pairs all exit early
        never pays for the full bound.

        ``parallel=True`` farms the (independent) chase groups across a
        ``concurrent.futures`` process pool — *max_workers* caps the pool
        size.  Results are returned in input order and are verdict-wise
        identical to the sequential path; when worker processes cannot be
        created, the batch runs in-process.  With a memory-only store,
        workers own private stores, so the parent store's counters and
        cached runs are not updated by a parallel batch, and worker-side
        spans/metrics are not forwarded to this checker's observability
        sink.  When the parent store has a persistent tier
        (:mod:`repro.store`), the batch instead **flushes** the parent's
        runs and ships only the database path: each worker attaches
        read-only once per pool lifetime and hydrates exactly the
        prefixes its groups need — no chase state is ever pickled across
        the pipe (see :func:`~repro.service.pool.check_group_attached`).

        *budget* governs every pair (defaulting to the checker-level
        budget): exhausted pairs come back UNKNOWN, and in parallel mode
        the budget ships to the workers for **worker-side** enforcement
        while the parent adds a per-group timeout.  A group whose worker
        crashes, breaks the pool or wedges falls back to in-parent
        execution — input-order slots are preserved in every case.
        *worker_faults* ships a fault plan to the workers (test-only; the
        in-parent fallback deliberately runs without it).

        *pool* injects a :class:`~repro.service.pool.WorkerPool` whose
        workers persist across batches (the service layer's warm pool):
        passing one implies ``parallel=True``, the pool is *not* shut
        down when the batch ends, and a broken or wedged pool is recycled
        instead of abandoned.  Groups whose chase the parent store
        already covers are decided in-process — a warmed-up batch pays no
        dispatch at all — and only cold groups travel to the workers.
        """
        use_anytime = self.anytime if anytime is None else anytime
        budget = budget if budget is not None else self.budget
        schema_atoms = tuple(schema) if schema is not None else None
        prepared: list[tuple[ConjunctiveQuery, ConjunctiveQuery, int]] = []
        for q1, q2 in pairs:
            q1 = self._apply_schema(q1, schema_atoms)
            self._require_equal_arity(q1, q2)
            bound = theorem12_bound(q1, q2) if level_bound is None else level_bound
            prepared.append((q1, q2, bound))

        groups: dict[tuple, list[int]] = {}
        for i, (q1, _, _) in enumerate(prepared):
            groups.setdefault(q1.canonical_key(), []).append(i)

        results: list[Optional[ContainmentResult]] = [None] * len(prepared)
        if (parallel or pool is not None) and len(groups) > 1:
            self._check_all_parallel(
                prepared, groups, use_anytime, max_workers, budget,
                worker_faults, pool, results,
            )
        else:
            for indexes in groups.values():
                self._check_group(prepared, indexes, use_anytime, budget, results)
        missing = [i for i, r in enumerate(results) if r is None]
        if missing:
            raise AssertionError(
                f"batch pipeline lost result slots {missing} of {len(results)}: "
                "every prepared pair must produce exactly one result"
            )
        return results

    def _check_group(
        self,
        prepared: list[tuple[ConjunctiveQuery, ConjunctiveQuery, int]],
        indexes: list[int],
        anytime: bool,
        budget: Optional[ExecutionBudget],
        results: list[Optional[ContainmentResult]],
    ) -> None:
        """Decide one ``q1`` group in-process into its *results* slots.

        Under the monolithic schedule the first pair chases the group's
        run to the group's largest bound, so the group's chase is billed
        to that pair alone and every later pair is a cache hit.
        """
        chase_to = 0 if anytime else max(prepared[i][2] for i in indexes)
        for i in indexes:
            q1, q2, bound = prepared[i]
            results[i] = self._checked(
                q1, q2, bound, anytime, budget=budget, chase_to=chase_to
            )
            chase_to = 0

    def _check_all_parallel(
        self,
        prepared: list[tuple[ConjunctiveQuery, ConjunctiveQuery, int]],
        groups: dict[tuple, list[int]],
        anytime: bool,
        max_workers: Optional[int],
        budget: Optional[ExecutionBudget],
        worker_faults: Optional[Sequence[Fault]],
        pool: Optional[WorkerPool],
        results: list[Optional[ContainmentResult]],
    ) -> None:
        """Fan chase groups out to a process pool, filling *results*.

        Each group is one task (its pairs share a worker-local chase), so
        parallelism scales with the number of *distinct* ``q1`` queries.

        **Warm-group routing** — a group whose chase the parent store
        already covers (a repeat batch, or pairs decided earlier through
        the same checker) is decided in-process: the store answers from
        the cached run and the group never travels to a worker.  Only
        cold groups are dispatched, so a fully warmed-up batch performs
        zero pool round-trips.

        **Warm pools** — when *pool* (a
        :class:`~repro.service.pool.WorkerPool`) is given, its executor
        is reused across batches: it is never shut down here, and a
        broken or wedged executor is handed back via
        :meth:`~repro.service.pool.WorkerPool.recycle` so the *next*
        batch gets fresh workers.  Without *pool*, a cold ephemeral
        executor is created and torn down per call.

        **Resilience** — the shipped *budget* is enforced **inside** the
        worker, so a deadline-bounded group returns UNKNOWN results
        instead of running long.  Each group gets one attempt: a group
        whose worker raises, breaks the pool, or exceeds the parent-side
        timeout derived from the deadline (``deadline · pairs · 2`` plus
        grace, meaning the worker is wedged) is decided in-parent instead
        (without *worker_faults*), so every input slot is filled exactly
        once, in order, no matter what the pool did.  When no executor
        can be created at all, every group is decided in-parent.
        """
        metrics = self.obs.metrics

        # Split warm groups (parent store already covers the chase) from
        # cold ones; warm groups are decided here, without dispatch.
        cold_groups: list[list[int]] = []
        for indexes in groups.values():
            q1 = prepared[indexes[0]][0]
            if self.store.covers(q1, max(prepared[i][2] for i in indexes)):
                self._check_group(prepared, indexes, anytime, budget, results)
            else:
                cold_groups.append(indexes)
        warm_groups = len(groups) - len(cold_groups)
        if metrics is not None and warm_groups:
            metrics.counter("containment.pool_warm_groups").inc(warm_groups)
        if not cold_groups:
            return
        if pool is not None:
            executor = pool.acquire()
        else:
            try:
                from concurrent.futures import ProcessPoolExecutor

                executor = ProcessPoolExecutor(max_workers=max_workers)
            except (ImportError, NotImplementedError, OSError, ValueError):
                executor = None
        if executor is None:
            for indexes in cold_groups:
                self._check_group(prepared, indexes, anytime, budget, results)
            return

        from concurrent.futures import TimeoutError as FuturesTimeout
        from concurrent.futures.process import BrokenProcessPool

        attach_path = self.store.snapshot_path
        if attach_path is not None and worker_faults is None:
            # Zero-pickle dispatch: flush the in-memory runs so workers can
            # hydrate them from disk, then ship only the database *path* —
            # workers attach read-only and cache the attached checker for
            # the pool's lifetime (see ``check_group_attached``).  Fault
            # plans stay on the pickled-payload worker so the attached
            # per-process cache stays deterministic.
            self.store.flush()
            worker_fn = _check_group_attached
            payload_head = (
                attach_path,
                self.dependencies,
                self.reorder_join,
                self.max_steps,
                anytime,
                budget,
                self.kernel,
            )
        else:
            worker_fn = _check_group_worker
            payload_head = (
                self.dependencies,
                self.reorder_join,
                self.max_steps,
                anytime,
                budget,
                tuple(worker_faults) if worker_faults else None,
                self.kernel,
            )
        deadline = budget.deadline_seconds if budget is not None else None
        fallback_groups = 0
        worker_pairs = 0
        broken = timed_out = False
        if pool is not None:
            pool.stats.tasks_submitted += len(cold_groups)
        try:
            try:
                futures = [
                    executor.submit(
                        worker_fn, payload_head + ([prepared[i] for i in indexes],)
                    )
                    for indexes in cold_groups
                ]
            except (BrokenProcessPool, OSError):
                broken = True
                futures = [None] * len(cold_groups)
            for indexes, future in zip(cold_groups, futures):
                group_results = None
                if future is not None:
                    timeout = (
                        None
                        if deadline is None
                        else deadline * len(indexes) * 2 + POOL_TIMEOUT_GRACE
                    )
                    try:
                        group_results = future.result(timeout=timeout)
                    # FuturesTimeout must be caught before OSError: on
                    # Python >= 3.11 it *is* the builtin TimeoutError, an
                    # OSError subclass.
                    except FuturesTimeout:
                        # The worker ignored its own deadline: it is
                        # wedged, and its pool slot is gone.
                        timed_out = True
                    except (BrokenProcessPool, OSError):
                        broken = True
                    except Exception:
                        pass  # the worker raised: decide in-parent
                if group_results is None:
                    fallback_groups += 1
                    self._check_group(prepared, indexes, anytime, budget, results)
                else:
                    worker_pairs += len(indexes)
                    for slot, result in zip(indexes, group_results):
                        results[slot] = result
        finally:
            if pool is not None:
                # Never close a warm pool at batch end — that is the whole
                # point.  A broken or wedged executor is recycled so the
                # next batch starts from fresh workers.
                if broken or timed_out:
                    pool.recycle(reason="broken" if broken else "wedged")
            else:
                # A wedged worker would make the ordinary shutdown wait
                # forever; abandon it and let the interpreter reap the pool.
                executor.shutdown(wait=not (broken or timed_out), cancel_futures=True)
        if metrics is not None:
            metrics.counter("containment.parallel_groups").inc(len(cold_groups))
            # In-parent decisions counted themselves; worker ones did not.
            metrics.counter("containment.checks").inc(worker_pairs)
            if fallback_groups:
                metrics.counter("containment.pool_fallback_groups").inc(
                    fallback_groups
                )

    # -- helpers -------------------------------------------------------------

    def _make_search_stats(self, tracer, metrics) -> Optional[SearchStats]:
        """Stats object for one decision's searches, or ``None``.

        Created whenever an observability sink wants the counts — or
        whenever the dense kernel may run, since :attr:`kernel_stats`
        aggregates unconditionally (the kernel section of the service
        stats must not silently read zero just because tracing is off).
        """
        if tracer.enabled or metrics is not None or self.kernel != "baseline":
            return SearchStats()
        return None

    def _publish_kernel_stats(self, search_stats, metrics) -> None:
        """Fold one decision's search stats into the kernel aggregates."""
        if search_stats is None:
            return
        self.kernel_stats.absorb(search_stats)
        if metrics is None:
            return
        if search_stats.kernel_nodes:
            metrics.counter("hom.kernel_nodes").inc(search_stats.kernel_nodes)
        if search_stats.bitset_ops:
            metrics.counter("hom.bitset_ops").inc(search_stats.bitset_ops)
        if search_stats.intern_symbols:
            metrics.counter("kernel.intern_symbols").inc(
                search_stats.intern_symbols
            )

    @staticmethod
    def _apply_schema(
        q1: ConjunctiveQuery, schema: Optional[Iterable[Atom]]
    ) -> ConjunctiveQuery:
        if schema is None:
            return q1
        schema_atoms = tuple(schema)
        for atom in schema_atoms:
            if not atom.is_ground:
                raise QueryError(f"schema atoms must be ground, got {atom}")
        if not schema_atoms:
            return q1
        return q1.with_body(q1.body + schema_atoms)

    @staticmethod
    def _require_equal_arity(q1: ConjunctiveQuery, q2: ConjunctiveQuery) -> None:
        if q1.arity != q2.arity:
            raise QueryError(
                f"containment requires equal arity: "
                f"{q1.name}/{q1.arity} vs {q2.name}/{q2.arity}"
            )

    @staticmethod
    def _failure_result(
        q1: ConjunctiveQuery,
        q2: ConjunctiveQuery,
        bound: int,
        run: ChaseRun,
        outcome: str,
        start: float,
        shared_chase_seconds: float,
    ) -> ContainmentResult:
        """A failed chase: no database satisfies ``q1``, so it is contained."""
        return ContainmentResult(
            q1=q1,
            q2=q2,
            contained=True,
            reason=ContainmentReason.CHASE_FAILURE,
            chase_result=run.result(),
            level_bound=bound,
            elapsed_seconds=time.perf_counter() - start,
            chase_outcome=outcome,
            shared_chase_seconds=shared_chase_seconds,
        )


def is_contained(
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    *,
    dependencies: Sequence[Dependency] = SIGMA_FL,
    level_bound: Optional[int] = None,
    schema: Optional[Iterable[Atom]] = None,
    anytime: bool = True,
    kernel: str = "auto",
) -> ContainmentResult:
    """One-shot ``q1 ⊆_{Sigma_FL} q2`` check (Theorem 12 procedure).

    Example
    -------
    >>> from repro.core import ConjunctiveQuery, Variable, type_, sub
    >>> T1, T2, T3, A, B, X = (Variable(n) for n in "T1 T2 T3 A B X".split())
    >>> q = ConjunctiveQuery("q", (A, B), (type_(T1, A, T2), sub(T2, T3), type_(T3, B, X)))
    >>> qq = ConjunctiveQuery("qq", (A, B), (type_(T1, A, T2), type_(T2, B, X)))
    >>> bool(is_contained(q, qq))
    True
    """
    checker = ContainmentChecker(dependencies, anytime=anytime, kernel=kernel)
    return checker.check(q1, q2, level_bound=level_bound, schema=schema)
