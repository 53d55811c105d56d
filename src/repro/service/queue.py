"""Admission control: bounded request queue with explicit rejection.

A production containment service must not melt under a burst — unbounded
queues turn overload into latency collapse.  :class:`AdmissionQueue`
implements the service layer's admission discipline:

* at most ``max_active`` requests execute at once (the concurrency
  gate); excess admitted requests wait their turn, and each release wakes
  exactly one of them;
* at most ``max_pending`` requests may be *waiting*; a request arriving
  beyond that is rejected immediately with
  :class:`~repro.core.errors.AdmissionRejected` — explicit back-pressure
  instead of silent buffering;
* :meth:`close` flips the queue into **drain** mode: new arrivals (and
  parked waiters) are rejected, while already-running requests finish;
  :meth:`drain` blocks until the queue is empty, giving
  ``Engine.close()`` its clean-shutdown guarantee.

Queue depth and active count are mirrored to ``service.queue_depth`` /
``service.active`` gauges and rejection reasons to the
``service.rejections`` counter when an observability sink is attached.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..core.errors import AdmissionRejected
from ..obs import OBS_OFF, Observability

__all__ = ["AdmissionQueue", "QueueStats"]


@dataclass
class QueueStats:
    """Admission counters of one :class:`AdmissionQueue`."""

    admitted: int = 0
    rejected: int = 0
    #: High-water mark of simultaneously waiting requests.
    peak_pending: int = 0
    #: High-water mark of simultaneously executing requests.
    peak_active: int = 0

    def as_dict(self) -> dict[str, int]:
        """The counters as a plain dict (stable keys, JSON-friendly)."""
        return {
            "admitted": self.admitted,
            "rejected": self.rejected,
            "peak_pending": self.peak_pending,
            "peak_active": self.peak_active,
        }


class AdmissionQueue:
    """Bounded concurrency gate with reject-over-buffer semantics.

    Parameters
    ----------
    max_active:
        Requests allowed to execute simultaneously.
    max_pending:
        Requests allowed to *wait* for an execution slot; an arrival
        finding the waiting room full is rejected, never parked.
    obs:
        Observability sink for the queue-depth/active gauges and the
        rejection counter.
    """

    def __init__(
        self,
        *,
        max_active: int = 8,
        max_pending: int = 64,
        obs: Optional[Observability] = None,
    ):
        if max_active < 1:
            raise ValueError(f"max_active must be positive, got {max_active}")
        if max_pending < 0:
            raise ValueError(f"max_pending must be >= 0, got {max_pending}")
        self.max_active = max_active
        self.max_pending = max_pending
        self.obs = obs if obs is not None else OBS_OFF
        self.stats = QueueStats()
        self._cond = threading.Condition()
        self._active = 0
        self._pending = 0
        self._closed = False

    # -- state ---------------------------------------------------------------

    @property
    def active(self) -> int:
        """Requests currently executing."""
        return self._active

    @property
    def depth(self) -> int:
        """Requests currently waiting for a slot (the queue depth)."""
        return self._pending

    @property
    def closed(self) -> bool:
        return self._closed

    # -- admission -----------------------------------------------------------

    @contextmanager
    def admit(self, op: str = "request") -> Iterator[None]:
        """Hold one execution slot for the duration of the ``with`` body.

        Raises :class:`~repro.core.errors.AdmissionRejected` (reason
        ``"draining"`` or ``"queue-full"``) instead of blocking when the
        queue is closed or the waiting room is full; otherwise blocks
        until a concurrency slot frees up.  *op* labels the rejection
        metric.
        """
        with self._cond:
            if self._closed:
                self._reject(op, "draining")
            if self._active >= self.max_active:
                if self._pending >= self.max_pending:
                    self._reject(op, "queue-full")
                self._pending += 1
                self.stats.peak_pending = max(self.stats.peak_pending, self._pending)
                self._gauge("service.queue_depth", self._pending)
                try:
                    while self._active >= self.max_active and not self._closed:
                        self._cond.wait()
                except BaseException:
                    # A waiter interrupted after it was woken must pass
                    # its wake-up on, or a free slot could sit unclaimed.
                    self._cond.notify()
                    raise
                finally:
                    self._pending -= 1
                    self._gauge("service.queue_depth", self._pending)
                if self._closed:
                    self._reject(op, "draining")
            self._active += 1
            self.stats.admitted += 1
            self.stats.peak_active = max(self.stats.peak_active, self._active)
            self._gauge("service.active", self._active)
        try:
            yield
        finally:
            with self._cond:
                self._active -= 1
                self._gauge("service.active", self._active)
                # One release frees one slot, so it wakes one waiter:
                # waking all of them would hand the GIL to each just to
                # park all but one again.  A closed queue wakes everybody
                # (its drain() waits on this condition too).
                if self._closed:
                    self._cond.notify_all()
                else:
                    self._cond.notify()

    # -- shutdown ------------------------------------------------------------

    def close(self) -> None:
        """Stop admitting: reject new arrivals and wake parked waiters.

        Requests already executing are unaffected — pair with
        :meth:`drain` to wait for them.  Idempotent.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Close, then wait until no request is executing or waiting.

        Returns ``True`` when the queue emptied within *timeout* seconds
        (``None`` waits forever) — the graceful-shutdown handshake of
        ``Engine.close()``.
        """
        self.close()
        with self._cond:
            return self._cond.wait_for(
                lambda: self._active == 0 and self._pending == 0, timeout=timeout
            )

    # -- helpers -------------------------------------------------------------

    def _reject(self, op: str, reason: str) -> None:
        self.stats.rejected += 1
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.counter("service.rejections", op=op, reason=reason).inc()
        raise AdmissionRejected(
            f"{op} rejected: {reason} "
            f"(active={self._active}/{self.max_active}, "
            f"pending={self._pending}/{self.max_pending})",
            reason=reason,
        )

    def _gauge(self, name: str, value: int) -> None:
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.gauge(name).set(value)

    def __repr__(self) -> str:
        state = "draining" if self._closed else "open"
        return (
            f"AdmissionQueue({state}, active={self._active}/{self.max_active}, "
            f"pending={self._pending}/{self.max_pending})"
        )
