"""AdmissionQueue: slots, bounded waiting room, rejection, drain."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core.errors import AdmissionRejected
from repro.obs import MetricsRegistry, Observability
from repro.service.queue import AdmissionQueue


class TestAdmission:
    def test_admit_releases_slot(self):
        queue = AdmissionQueue(max_active=1)
        with queue.admit():
            assert queue.active == 1
        assert queue.active == 0
        assert queue.stats.admitted == 1

    def test_validates_limits(self):
        with pytest.raises(ValueError):
            AdmissionQueue(max_active=0)
        with pytest.raises(ValueError):
            AdmissionQueue(max_pending=-1)

    def test_excess_requests_wait_their_turn(self):
        queue = AdmissionQueue(max_active=2, max_pending=16)
        running = threading.Semaphore(0)
        release = threading.Event()
        seen = []

        def work(i):
            with queue.admit():
                running.release()
                release.wait(timeout=30)
                seen.append(i)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        # Exactly max_active requests run; the rest park in the queue.
        running.acquire(timeout=10)
        running.acquire(timeout=10)
        deadline = time.monotonic() + 10
        while queue.depth < 4 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert queue.active == 2
        assert queue.depth == 4
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert sorted(seen) == list(range(6))
        assert queue.stats.peak_active == 2
        assert queue.stats.peak_pending == 4


class _CountingCondition(threading.Condition):
    """A condition that counts the waiters each notification wakes."""

    woken = 0

    def notify(self, n=1):
        # notify_all() is notify(len(waiters)) in CPython, so both land here.
        self.woken += min(n, len(self._waiters))
        super().notify(n)


class TestWakeups:
    def test_one_release_wakes_one_waiter(self):
        waiters = 6
        queue = AdmissionQueue(max_active=1, max_pending=waiters)
        cond = queue._cond = _CountingCondition()
        entered = threading.Semaphore(0)
        leave = threading.Semaphore(0)

        def work():
            with queue.admit():
                entered.release()
                assert leave.acquire(timeout=30)

        def parked_reaches(count):
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                with cond:
                    if len(cond._waiters) == count:
                        return True
                time.sleep(0.005)
            return False

        threads = [threading.Thread(target=work) for _ in range(waiters + 1)]
        threads[0].start()
        assert entered.acquire(timeout=10)
        for t in threads[1:]:
            t.start()
        assert parked_reaches(waiters)
        wakeups = []
        for remaining in range(waiters - 1, -1, -1):
            before = cond.woken
            leave.release()  # the slot holder leaves: one slot frees
            assert entered.acquire(timeout=10)  # and one waiter takes it
            # Every other waiter is parked again before the next release.
            assert parked_reaches(remaining)
            wakeups.append(cond.woken - before)
        leave.release()
        for t in threads:
            t.join(timeout=30)
        assert wakeups == [1] * waiters
        assert queue.stats.admitted == waiters + 1

    def test_no_lost_wakeups_under_contention(self):
        # More threads than slots and cores, short GIL slices: a release
        # whose single wake-up went missing would strand a waiter.
        queue = AdmissionQueue(max_active=2, max_pending=16)
        done = []
        lock = threading.Lock()
        running = [0]
        overlap = []

        def work():
            for _ in range(200):
                with queue.admit():
                    with lock:
                        running[0] += 1
                        overlap.append(running[0])
                    with lock:
                        running[0] -= 1
            done.append(1)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(done) == 12
        assert max(overlap) <= 2
        assert queue.stats.admitted == 12 * 200
        assert queue.active == 0 and queue.depth == 0

    def test_close_still_wakes_every_waiter(self):
        queue = AdmissionQueue(max_active=1, max_pending=4)
        cond = queue._cond = _CountingCondition()
        rejected = []
        parked = threading.Event()

        def wait_for_slot():
            try:
                with queue.admit():
                    pass
            except AdmissionRejected as exc:
                rejected.append(exc.reason)

        with queue.admit():
            threads = [threading.Thread(target=wait_for_slot) for _ in range(4)]
            for t in threads:
                t.start()
            deadline = time.monotonic() + 10
            while not parked.is_set() and time.monotonic() < deadline:
                with cond:
                    if len(cond._waiters) == 4:
                        parked.set()
                time.sleep(0.005)
            assert parked.is_set()
            queue.close()
            for t in threads:
                t.join(timeout=30)
        assert rejected == ["draining"] * 4
        assert cond.woken >= 4


class TestRejection:
    def test_full_waiting_room_rejects(self):
        queue = AdmissionQueue(max_active=1, max_pending=0)
        release = threading.Event()
        started = threading.Event()

        def hold():
            with queue.admit():
                started.set()
                release.wait(timeout=30)

        t = threading.Thread(target=hold)
        t.start()
        assert started.wait(timeout=10)
        with pytest.raises(AdmissionRejected) as exc_info:
            with queue.admit():
                pass
        assert exc_info.value.reason == "queue-full"
        release.set()
        t.join(timeout=30)
        assert queue.stats.rejected == 1

    def test_closed_queue_rejects_as_draining(self):
        queue = AdmissionQueue()
        queue.close()
        with pytest.raises(AdmissionRejected) as exc_info:
            with queue.admit():
                pass
        assert exc_info.value.reason == "draining"

    def test_parked_waiter_rejected_on_close(self):
        queue = AdmissionQueue(max_active=1, max_pending=4)
        release = threading.Event()
        started = threading.Event()
        outcome = {}

        def hold():
            with queue.admit():
                started.set()
                release.wait(timeout=30)

        def wait_in_line():
            try:
                with queue.admit():
                    outcome["admitted"] = True
            except AdmissionRejected as exc:
                outcome["reason"] = exc.reason

        holder = threading.Thread(target=hold)
        holder.start()
        assert started.wait(timeout=10)
        waiter = threading.Thread(target=wait_in_line)
        waiter.start()
        deadline = time.monotonic() + 10
        while queue.depth < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        queue.close()
        waiter.join(timeout=30)
        assert outcome == {"reason": "draining"}
        release.set()
        holder.join(timeout=30)

    def test_rejection_metric(self):
        obs = Observability(metrics=MetricsRegistry())
        queue = AdmissionQueue(obs=obs)
        queue.close()
        with pytest.raises(AdmissionRejected):
            with queue.admit(op="check"):
                pass
        counter = obs.metrics.counter(
            "service.rejections", op="check", reason="draining"
        )
        assert counter.value == 1


class TestDrain:
    def test_drain_waits_for_active_work(self):
        queue = AdmissionQueue(max_active=2)
        release = threading.Event()
        started = threading.Event()

        def work():
            with queue.admit():
                started.set()
                release.wait(timeout=30)

        t = threading.Thread(target=work)
        t.start()
        assert started.wait(timeout=10)
        assert queue.drain(timeout=0.05) is False
        release.set()
        assert queue.drain(timeout=30) is True
        t.join(timeout=30)
        assert queue.active == 0

    def test_drain_on_idle_queue_is_immediate(self):
        queue = AdmissionQueue()
        assert queue.drain(timeout=1) is True
        assert queue.closed

    def test_queue_depth_gauge(self):
        obs = Observability(metrics=MetricsRegistry())
        queue = AdmissionQueue(max_active=1, max_pending=4, obs=obs)
        release = threading.Event()
        started = threading.Event()

        def hold():
            with queue.admit():
                started.set()
                release.wait(timeout=30)

        def wait_in_line():
            with queue.admit():
                pass

        holder = threading.Thread(target=hold)
        holder.start()
        assert started.wait(timeout=10)
        waiter = threading.Thread(target=wait_in_line)
        waiter.start()
        deadline = time.monotonic() + 10
        while queue.depth < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        # The gauge mirrored the nonzero depth while the waiter parked.
        assert obs.metrics.gauge("service.queue_depth").value == 1
        release.set()
        holder.join(timeout=30)
        waiter.join(timeout=30)
        assert obs.metrics.gauge("service.queue_depth").value == 0
        assert obs.metrics.gauge("service.active").value == 0
