"""Graceful degradation of governed containment checks.

The contract under test, end to end:

* a budget that runs out turns the verdict into UNKNOWN — never into a
  wrong decision, and never into a hang (the acceptance bound is twice
  the deadline);
* cancellation behaves like exhaustion, with its own reason;
* an interrupted chase session resumed with a fresh budget reaches the
  same fixpoint as a run that was never interrupted;
* the parallel batch path falls back to in-parent checking per group
  when a worker crashes or wedges, preserving input order.

Determinism comes from the fault harness: a repeating ``slow`` fault on
a chase checkpoint makes any deadline expire on schedule, independent of
host speed.
"""

import threading
import time

import pytest

import repro.containment.bounded as bounded
from repro.chase.engine import ChaseConfig, ChaseEngine
from repro.containment.bounded import ContainmentChecker
from repro.containment.result import ContainmentReason, Decision
from repro.core.errors import BudgetExceeded, ExecutionCancelled
from repro.dependencies.sigma_fl import SIGMA_FL
from repro.governance.budget import CancelScope, ExecutionBudget, Governor
from repro.governance.faults import Fault
from repro.obs import MetricsRegistry, Observability
from repro.workloads.corpus import EXAMPLE2_QUERY, PAPER_CONTAINMENT_PAIRS

DEADLINE = 0.1

#: Sleeps longer than DEADLINE at every anytime probe, so a governed
#: check deterministically finds its deadline expired at the very first
#: poll after the sleep — whatever the host speed or query difficulty.
SLOW_PROBE = (
    Fault(site="containment.probe", at=1, kind="slow", seconds=0.12, repeat=True),
)

#: A deadline the checks that must *decide* can meet on a loaded host.
DECIDE_DEADLINE = 1.0

#: Sleeps past DECIDE_DEADLINE, firing only on the first probe of a
#: batch: result 0 goes UNKNOWN, the rest decide normally.
SLOW_FIRST_PROBE = (
    Fault(site="containment.probe", at=1, kind="slow", seconds=1.2),
)

#: How long a governed run may take before it counts as hung rather than
#: stopped: far above DEADLINE plus one poll interval on a loaded host,
#: far below the unbounded run it replaces.
HANG_CEILING = 5.0

#: A pair whose verdict is negative (no early witness exit), used where
#: the check must actually run the full schedule.
NEGATIVE_PAIR = next(
    (q1, q2) for q1, q2, sigma, _ in PAPER_CONTAINMENT_PAIRS if not sigma
)

#: How long a deliberately wedged worker sleeps — far past the
#: parent-side future timeout the wedge tests shrink to well under a
#: second, yet short enough that the abandoned worker exits promptly
#: once its sleep ends.
WEDGE_SECONDS = 3.0


class TestDeadlineUnknown:
    def test_unknown_within_twice_the_deadline(self):
        q1, q2 = NEGATIVE_PAIR
        checker = ContainmentChecker(faults=SLOW_PROBE)
        t0 = time.perf_counter()
        result = checker.check(
            q1, q2, budget=ExecutionBudget(deadline_seconds=DEADLINE)
        )
        elapsed = time.perf_counter() - t0
        assert elapsed < 2 * DEADLINE
        assert result.unknown
        assert result.decision is Decision.UNKNOWN
        assert result.reason is ContainmentReason.BUDGET_EXHAUSTED
        assert not result  # conservatively falsy
        assert result.witness is None
        assert result.verify()
        assert result.budget_report is not None
        assert result.budget_report.exhausted == "deadline"
        assert "UNKNOWN" in result.explain()

    def test_chase_deadline_on_cyclic_saturation_request(self):
        # EXAMPLE2_QUERY chases forever; asking for saturation with a
        # deadline must stop on time instead of hanging.
        engine = ChaseEngine(SIGMA_FL, ChaseConfig(max_level=None))
        run = engine.start(EXAMPLE2_QUERY)
        governor = Governor(ExecutionBudget(deadline_seconds=DEADLINE))
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceeded) as exc_info:
            run.extend_to(None, governor=governor)
        assert time.perf_counter() - t0 < HANG_CEILING
        assert exc_info.value.budget_report.exhausted == "deadline"

    def test_unknown_counts_a_metric(self):
        obs = Observability(metrics=MetricsRegistry())
        q1, q2 = NEGATIVE_PAIR
        checker = ContainmentChecker(obs=obs, faults=SLOW_PROBE)
        checker.check(q1, q2, budget=ExecutionBudget(deadline_seconds=DEADLINE))
        counters = obs.metrics.as_dict()["counters"]
        assert counters["containment.unknown"] == {"reason=budget-exhausted": 1}


class TestDegradationNeverFlipsVerdicts:
    def test_unlimited_governed_matches_ungoverned(self):
        for q1, q2, expected, _ in PAPER_CONTAINMENT_PAIRS:
            governed = ContainmentChecker(
                budget=ExecutionBudget.unlimited()
            ).check(q1, q2)
            assert governed.contained == expected
            assert not governed.unknown
            assert governed.verify()

    def test_slow_faults_without_budget_still_decide(self):
        # Slowness alone (no deadline) must not change any verdict.
        for q1, q2, expected, _ in PAPER_CONTAINMENT_PAIRS[:2]:
            result = ContainmentChecker(faults=SLOW_PROBE).check(q1, q2)
            assert not result.unknown
            assert result.contained == expected


class TestCancellation:
    def test_pre_cancelled_scope_returns_unknown_immediately(self):
        q1, q2, _, _ = PAPER_CONTAINMENT_PAIRS[0]
        scope = CancelScope()
        scope.cancel("shutdown")
        result = ContainmentChecker().check(
            q1, q2, budget=ExecutionBudget.unlimited(), scope=scope
        )
        assert result.unknown
        assert result.reason is ContainmentReason.CANCELLED
        assert result.decision is Decision.UNKNOWN

    def test_cross_thread_cancel_lands_within_bound(self):
        q1, q2 = NEGATIVE_PAIR
        scope = CancelScope()
        timer = threading.Timer(DEADLINE * 0.5, scope.cancel, args=("timer",))
        checker = ContainmentChecker(faults=SLOW_PROBE)
        timer.start()
        try:
            t0 = time.perf_counter()
            result = checker.check(
                q1, q2, budget=ExecutionBudget.unlimited(), scope=scope
            )
            elapsed = time.perf_counter() - t0
        finally:
            timer.cancel()
        assert result.unknown
        assert result.reason is ContainmentReason.CANCELLED
        assert elapsed < 2 * DEADLINE

    def test_raw_chase_cancellation(self):
        scope = CancelScope()
        scope.cancel("stop")
        engine = ChaseEngine(SIGMA_FL, ChaseConfig(max_level=None))
        run = engine.start(EXAMPLE2_QUERY)
        with pytest.raises(ExecutionCancelled):
            run.extend_to(4, governor=Governor(scope=scope))


class TestSequentialBatch:
    def test_budgeted_batch_keeps_order_and_marks_unknown(self):
        pairs = [(q1, q2) for q1, q2, _, _ in PAPER_CONTAINMENT_PAIRS]
        expected = [sigma for _, _, sigma, _ in PAPER_CONTAINMENT_PAIRS]
        checker = ContainmentChecker(faults=SLOW_FIRST_PROBE)
        results = checker.check_all(
            pairs, budget=ExecutionBudget(deadline_seconds=DECIDE_DEADLINE)
        )
        assert len(results) == len(pairs)
        for (q1, q2), result in zip(pairs, results):
            assert result.q1.name == q1.name
            assert result.q2.name == q2.name
        # The one-shot fault hits exactly the first check of the batch:
        # it goes UNKNOWN, every later check decides correctly — each
        # check gets its own fresh Governor (and so its own deadline).
        assert results[0].unknown
        for result, sigma in zip(results[1:], expected[1:]):
            assert not result.unknown
            assert result.contained == sigma
            assert result.verify()


class TestParallelResilience:
    def test_worker_crash_falls_back_per_group_preserving_order(self):
        pairs = [(q1, q2) for q1, q2, _, _ in PAPER_CONTAINMENT_PAIRS]
        expected = [sigma for _, _, sigma, _ in PAPER_CONTAINMENT_PAIRS]
        obs = Observability(metrics=MetricsRegistry())
        checker = ContainmentChecker(obs=obs)
        crash_every_probe = (
            Fault(site="containment.probe", at=1, kind="raise", repeat=True),
        )
        results = checker.check_all(
            pairs, parallel=True, max_workers=2, worker_faults=crash_every_probe
        )
        assert [r.contained for r in results] == expected
        assert [
            (r.q1.name, r.q2.name) for r in results
        ] == [(q1.name, q2.name) for q1, q2 in pairs]
        counters = obs.metrics.as_dict()["counters"]
        assert counters["containment.pool_fallback_groups"] >= 1

    def test_wedged_worker_times_out_parent_side_and_falls_back(
        self, monkeypatch
    ):
        # The worker sleeps straight through its own deadline (the slow
        # fault fires *before* the governor's deadline poll), so only
        # the parent-side future timeout can notice the wedge.  On
        # Python >= 3.11 concurrent.futures.TimeoutError is the builtin
        # TimeoutError, an OSError subclass — this drives the real
        # exception through the handler ordering to prove the timeout
        # is caught as a timeout, the group falls back in-parent, and
        # shutdown does not join the wedged worker.
        monkeypatch.setattr(bounded, "POOL_TIMEOUT_GRACE", 0.3)
        pairs = [(q1, q2) for q1, q2, _, _ in PAPER_CONTAINMENT_PAIRS[:2]]
        expected = [sigma for _, _, sigma, _ in PAPER_CONTAINMENT_PAIRS[:2]]
        obs = Observability(metrics=MetricsRegistry())
        checker = ContainmentChecker(obs=obs)
        wedge = (
            Fault(
                site="containment.probe",
                at=1,
                kind="slow",
                seconds=WEDGE_SECONDS,
            ),
        )
        t0 = time.perf_counter()
        results = checker.check_all(
            pairs,
            parallel=True,
            max_workers=2,
            budget=ExecutionBudget(deadline_seconds=DEADLINE),
            worker_faults=wedge,
        )
        elapsed = time.perf_counter() - t0
        # Joining a wedged worker would take >= WEDGE_SECONDS.
        assert elapsed < WEDGE_SECONDS
        assert [r.contained for r in results] == expected
        assert not any(r.unknown for r in results)
        counters = obs.metrics.as_dict()["counters"]
        assert counters["containment.pool_fallback_groups"] >= 1

    def test_worker_side_budget_yields_unknown_in_parallel(self):
        # The slow fault and the deadline are BOTH shipped to the pool:
        # the worker's own governor times out, and the worker returns
        # UNKNOWN results rather than wedging the pool.
        pairs = [(q1, q2) for q1, q2, _, _ in PAPER_CONTAINMENT_PAIRS[:2]]
        checker = ContainmentChecker()
        results = checker.check_all(
            pairs,
            parallel=True,
            max_workers=2,
            budget=ExecutionBudget(deadline_seconds=DEADLINE),
            worker_faults=SLOW_PROBE,
        )
        assert len(results) == len(pairs)
        for result in results:
            assert result.unknown
            assert result.reason is ContainmentReason.BUDGET_EXHAUSTED
