"""Warm worker pools: process workers that persist across batches.

Before the service layer, every ``ContainmentChecker.check_all(parallel=
True)`` built a fresh :class:`concurrent.futures.ProcessPoolExecutor`,
paid worker spawn for each batch, and tore the pool down again.
:class:`WorkerPool` extracts that lifecycle into a reusable object:

* **warm reuse** — the executor is created lazily on the first batch and
  then *kept*; later batches submit to already-running workers, so the
  per-call startup cost drops to zero after warm-up;
* **health-checked recycling** — a pool observed broken (crashed worker
  pipe) or wedged (a worker that ignored its own deadline) is abandoned
  with :meth:`recycle` and a fresh executor replaces it on the next
  submit, so one bad batch never poisons the service;
* **graceful close** — :meth:`close` drains the executor (or abandons it
  when ``wait=False``), after which the pool refuses new submissions.

The module is also the home of the pool tuning constants and the
picklable batch workers that :mod:`repro.containment.bounded` dispatches.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..obs import OBS_OFF, Observability

__all__ = [
    "WorkerPool",
    "PoolStats",
    "check_group_worker",
    "check_group_attached",
    "POOL_TIMEOUT_GRACE",
    "POOL_HEALTHCHECK_TIMEOUT",
]

#: Grace added to a worker's wall-clock allowance before the parent calls
#: the worker wedged: process spawn and result pickling ride on top of
#: the pairs' own deadline-bounded work.
POOL_TIMEOUT_GRACE = 5.0

#: How long :meth:`WorkerPool.healthcheck` waits for the ping round-trip
#: before declaring the pool unhealthy and recycling it.
POOL_HEALTHCHECK_TIMEOUT = 10.0


def check_group_worker(payload: tuple) -> list:
    """Decide one chase group in a worker process.

    Module-level (picklable) entry point of the parallel batch pipeline.
    The worker owns a private checker/store — chase work is shared within
    the group it processes, and the parent's store is untouched.

    Deadline enforcement is **worker-side**: the shipped
    :class:`~repro.governance.ExecutionBudget` (if any) governs every
    check run here, so a budget-stopped pair comes back as an UNKNOWN
    result instead of wedging the pool; the parent's per-future timeout
    is only the second line of defence.  A shipped fault plan rebuilds a
    private :class:`~repro.governance.FaultInjector` in this process.
    """
    # Imported lazily: this module sits below repro.containment in the
    # layer order, and the worker process resolves the import on first
    # task execution anyway.
    from ..containment.bounded import ContainmentChecker

    dependencies, reorder_join, max_steps, anytime, budget, fault_plan, kernel, items = (
        payload
    )
    checker = ContainmentChecker(
        dependencies,
        reorder_join=reorder_join,
        max_steps=max_steps,
        anytime=anytime,
        budget=budget,
        faults=fault_plan,
        kernel=kernel,
    )
    # Detached results pickle the O(|q2|) certificate, not the chase.
    return [
        checker.check(q1, q2, level_bound=bound).detached()
        for q1, q2, bound in items
    ]


#: Per-process cache of attached checkers, keyed by the attach descriptor
#: head.  A pool worker builds its checker (and opens the snapshot
#: database) once per pool lifetime, then serves every later group from
#: the same warm store — this retained chase state, plus never pickling a
#: ChaseRun across the pipe, is what makes parallel ``check_all`` pay.
_ATTACHED: dict = {}


def check_group_attached(payload: tuple) -> list:
    """Decide one chase group by attaching to a shared snapshot database.

    The zero-pickle sibling of :func:`check_group_worker`: instead of a
    private throwaway checker per task, the payload carries the *path* of
    the parent's snapshot database (:mod:`repro.store`) and the worker
    attaches **read-only** — hydrating exactly the keys and level prefixes
    its groups need, never receiving pickled chase state.  The attached
    checker is cached in ``_ATTACHED`` per process, so repeated batches
    reuse both the SQLite connection and every chase hydrated or computed
    so far (a warm in-memory LRU above the shared disk tier).

    Budgets govern worker-side exactly as in :func:`check_group_worker`.
    Fault injection is intentionally *not* supported on this path — fault
    plans ship through the legacy pickled-payload worker, keeping the
    attached cache deterministic.
    """
    from ..containment.bounded import ContainmentChecker
    from ..containment.store import ChaseStore

    db_path, dependencies, reorder_join, max_steps, anytime, budget, kernel, items = (
        payload
    )
    cache_key = (db_path, tuple(dependencies), reorder_join, max_steps, kernel)
    checker = _ATTACHED.get(cache_key)
    if checker is None:
        store = ChaseStore(
            dependencies,
            reorder_join=reorder_join,
            max_steps=max_steps,
            persist=db_path,
            read_only=True,
        )
        checker = ContainmentChecker(
            dependencies,
            reorder_join=reorder_join,
            max_steps=max_steps,
            store=store,
            anytime=anytime,
            kernel=kernel,
        )
        _ATTACHED[cache_key] = checker
    return [
        checker.check(
            q1, q2, level_bound=bound, anytime=anytime, budget=budget
        ).detached()
        for q1, q2, bound in items
    ]


def _pool_ping() -> int:
    """Health-check probe: prove a worker is alive by returning its pid."""
    return os.getpid()


@dataclass
class PoolStats:
    """Lifecycle counters of one :class:`WorkerPool`."""

    #: Executors created over the pool's lifetime (1 after warm-up; each
    #: :meth:`WorkerPool.recycle` adds one more on the next submit).
    pools_started: int = 0
    #: Executors abandoned by :meth:`WorkerPool.recycle`.
    recycles: int = 0
    #: Tasks handed to :meth:`WorkerPool.submit`.
    tasks_submitted: int = 0
    #: Health-check probes run (successful or not).
    healthchecks: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (stable keys, JSON-friendly)."""
        return {
            "pools_started": self.pools_started,
            "recycles": self.recycles,
            "tasks_submitted": self.tasks_submitted,
            "healthchecks": self.healthchecks,
        }


class WorkerPool:
    """A warm, recyclable process pool shared across batches.

    Thread-safe: any number of service threads may submit concurrently;
    executor creation, recycling and shutdown are serialised by one lock.

    Parameters
    ----------
    max_workers:
        Forwarded to :class:`~concurrent.futures.ProcessPoolExecutor`;
        ``None`` lets the executor pick (CPU count).
    obs:
        Observability sink — pool starts, recycles and submissions are
        mirrored as ``service.pool_*`` metrics.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        *,
        obs: Optional[Observability] = None,
    ):
        self.max_workers = max_workers
        self.obs = obs if obs is not None else OBS_OFF
        self.stats = PoolStats()
        self._lock = threading.RLock()
        self._executor = None
        self._closed = False

    # -- state ---------------------------------------------------------------

    @property
    def warm(self) -> bool:
        """Whether a live executor (with already-spawned workers) exists."""
        with self._lock:
            return self._executor is not None

    @property
    def closed(self) -> bool:
        return self._closed

    # -- lifecycle -----------------------------------------------------------

    def acquire(self):
        """The live executor, creating one if needed — ``None`` on failure.

        Failure to create a process pool (restricted platforms, resource
        exhaustion) is reported as ``None`` rather than raised, mirroring
        the batch pipeline's graceful sequential fallback.
        """
        with self._lock:
            if self._closed:
                return None
            if self._executor is None:
                try:
                    from concurrent.futures import ProcessPoolExecutor

                    self._executor = ProcessPoolExecutor(
                        max_workers=self.max_workers
                    )
                except (
                    ImportError,
                    NotImplementedError,
                    OSError,
                    ValueError,
                    PermissionError,
                ):
                    return None
                self.stats.pools_started += 1
                self._count("service.pool_starts")
            return self._executor

    def submit(self, fn: Callable[..., Any], /, *args: Any):
        """Submit a task to the warm pool (creating it on first use).

        Raises ``RuntimeError`` when the pool is closed or cannot be
        created — callers that want the graceful path use
        :meth:`acquire` and submit to the executor themselves.
        """
        executor = self.acquire()
        if executor is None:
            raise RuntimeError(
                "worker pool is closed" if self._closed
                else "worker pool could not be created"
            )
        self.stats.tasks_submitted += 1
        return executor.submit(fn, *args)

    def recycle(self, reason: str = "unhealthy") -> None:
        """Abandon the current executor; the next submit builds a fresh one.

        The old executor is shut down without waiting (``cancel_futures=
        True``) — a wedged worker would make a blocking join hang forever,
        so the interpreter reaps the processes instead.  Safe to call
        when no executor exists (no-op).
        """
        with self._lock:
            executor, self._executor = self._executor, None
            if executor is None:
                return
            self.stats.recycles += 1
            self._count("service.pool_recycles", reason=reason)
        executor.shutdown(wait=False, cancel_futures=True)

    def healthcheck(self, timeout: float = POOL_HEALTHCHECK_TIMEOUT) -> bool:
        """Probe the pool with a round-trip ping; recycle it on failure.

        Returns ``True`` when a worker answered within *timeout* seconds.
        A pool that cannot be created at all reports ``False`` without
        counting a recycle (there is nothing to recycle).
        """
        self.stats.healthchecks += 1
        executor = self.acquire()
        if executor is None:
            return False
        try:
            pid = executor.submit(_pool_ping).result(timeout=timeout)
            return isinstance(pid, int)
        except Exception:
            self.recycle(reason="healthcheck-failed")
            return False

    def close(self, wait: bool = True) -> None:
        """Shut the pool down; subsequent submits are refused.

        ``wait=True`` (the default) joins the workers — the graceful
        drain; ``wait=False`` abandons them (the wedged-shutdown path).
        Idempotent.
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _count(self, name: str, **labels: str) -> None:
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.counter(name, **labels).inc()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("warm" if self.warm else "cold")
        return (
            f"WorkerPool({state}, max_workers={self.max_workers}, "
            f"starts={self.stats.pools_started}, recycles={self.stats.recycles})"
        )
