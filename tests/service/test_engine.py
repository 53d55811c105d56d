"""ContainmentService / Engine: coalescing, warm batches, shutdown."""

from __future__ import annotations

import gc
import multiprocessing
import threading
import time
import weakref

import pytest

from repro.api import Engine, StoreConfig
from repro.core.errors import AdmissionRejected
from repro.governance import CancelScope, ExecutionBudget
from repro.obs import MetricsRegistry, Observability, Tracer
from repro.workloads import QueryGenerator


def _corpus(n_groups=4, pairs_per_group=2, seed=11):
    """Pairs spanning *n_groups* distinct q1 chase groups."""
    gen = QueryGenerator(seed)
    pairs = []
    for _ in range(n_groups):
        q1, q2 = gen.containment_pair()
        for _ in range(pairs_per_group):
            pairs.append((q1, q2))
    return pairs


class TestCheck:
    def test_check_matches_direct_checker(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine() as engine:
            result = engine.check(q1, q2)
        assert result.contained

    def test_explain_attaches_provenance(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine() as engine:
            result = engine.explain(q1, q2)
        assert result.provenance is not None

    def test_chase_served_from_shared_store(self, joinable_pair):
        q1, _ = joinable_pair
        with Engine() as engine:
            first = engine.chase(q1, 2)
            assert first is engine.chase(q1, 2)
            assert engine.store.stats.hits >= 1

    def test_scope_carrying_check_bypasses_coalescing(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine() as engine:
            result = engine.check(q1, q2, scope=CancelScope())
            assert result.contained
            assert engine.service.stats.coalesced == 0


class TestConcurrentChecks:
    def test_eight_concurrent_checks_match_monolithic_verdicts(self):
        pairs = [QueryGenerator(seed).containment_pair() for seed in range(8)]
        # Ground truth: each pair decided alone, monolithic schedule.
        expected = []
        for q1, q2 in pairs:
            with Engine(anytime=False) as solo:
                expected.append(solo.check(q1, q2).contained)

        obs = Observability(metrics=MetricsRegistry())
        results = [None] * len(pairs)
        errors = []
        with Engine(max_active=8, obs=obs) as engine:

            def work(i):
                try:
                    q1, q2 = pairs[i]
                    results[i] = engine.check(q1, q2)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(len(pairs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not errors
            assert engine.service.queue.stats.admitted == len(pairs)
        got = [r.contained for r in results]
        assert got == expected

    def test_identical_inflight_checks_share_one_computation(self, joinable_pair):
        q1, q2 = joinable_pair
        obs = Observability(metrics=MetricsRegistry())
        engine = Engine(obs=obs)
        release = threading.Event()
        entered = threading.Event()
        calls = []
        inner_check = engine.service.checker.check

        def slow_check(*args, **kwargs):
            calls.append(1)
            entered.set()
            assert release.wait(timeout=30)
            return inner_check(*args, **kwargs)

        engine.service.checker.check = slow_check
        results = [None] * 6

        def work(i):
            results[i] = engine.check(q1, q2)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        threads[0].start()
        assert entered.wait(timeout=10)  # the leader is inside the checker
        for t in threads[1:]:
            t.start()
        # Followers pile onto the leader's future, not the queue.
        deadline = time.monotonic() + 10
        while engine.service.stats.coalesced < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
        release.set()
        for t in threads:
            t.join(timeout=30)
        assert len(calls) == 1, "coalesced followers must not recompute"
        assert all(r is results[0] for r in results)
        assert engine.service.stats.coalesced == 5
        assert obs.metrics.counter("service.coalesce_hits").value == 5
        engine.service.checker.check = inner_check
        engine.close()

    def test_same_q1_requests_share_the_chase(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine() as engine:
            engine.check(q1, q2)
            misses_before = engine.store.stats.misses
            engine.check(q1, q2, level_bound=2)
            # The second request's q1 chase came from the store, not fresh.
            assert engine.store.stats.misses == misses_before


class TestWarmBatches:
    def test_zero_pool_startup_after_warmup(self):
        pairs = _corpus(n_groups=4)
        with Engine(max_workers=2) as engine:
            first = engine.check_all(pairs)
            starts_after_first = engine.service.pool.stats.pools_started
            assert starts_after_first <= 1  # 0 = all decided in-parent
            second = engine.check_all(pairs)
            third = engine.check_all(pairs)
            # Warm-up paid at most once; repeat batches never re-spawn.
            assert engine.service.pool.stats.pools_started == starts_after_first
            assert [r.contained for r in second] == [r.contained for r in first]
            assert [r.contained for r in third] == [r.contained for r in first]

    def test_repeat_batch_short_circuits_dispatch(self):
        pairs = _corpus(n_groups=3)
        obs = Observability(metrics=MetricsRegistry())
        with Engine(max_workers=2, obs=obs) as engine:
            first = engine.check_all(pairs)
            submitted = engine.service.pool.stats.tasks_submitted
            second = engine.check_all(pairs)
            # Second batch: every verdict recalled, nothing dispatched.
            assert engine.service.pool.stats.tasks_submitted == submitted
            assert engine.service.stats.result_hits == len(pairs)
            assert obs.metrics.counter("service.result_hits").value == len(pairs)
            assert [r.contained for r in second] == [r.contained for r in first]

    def test_store_covered_groups_decided_in_parent(self, joinable_pair):
        q1, q2 = joinable_pair
        pairs = _corpus(n_groups=2) + [(q1, q2)]
        obs = Observability(metrics=MetricsRegistry())
        with Engine(max_workers=2, obs=obs) as engine:
            # Warm the parent store's q1 chase directly: chase() fills the
            # store but not the result cache, so the batch pair is a cold
            # request over a covered group.
            from repro.containment.bounded import theorem12_bound

            engine.chase(q1, theorem12_bound(q1, q2))
            engine.check_all(pairs)
            # The covered group never traveled to a worker.
            assert obs.metrics.counter("containment.pool_warm_groups").value >= 1

    def test_sequential_batch_matches_parallel(self):
        pairs = _corpus(n_groups=3)
        with Engine() as warm_engine:
            parallel = warm_engine.check_all(pairs)
        with Engine() as seq_engine:
            sequential = seq_engine.check_all(pairs, parallel=False)
        assert [r.contained for r in parallel] == [
            r.contained for r in sequential
        ]


class TestResidentChases:
    """The verdict cache keeps certificates; only the store keeps chases."""

    def test_live_chases_bounded_by_store_capacity(self):
        capacity = 8
        instances = []
        seen = set()
        seed = 0
        with Engine(store_config=StoreConfig(capacity=capacity)) as engine:
            while len(seen) < 64:
                q1, q2 = QueryGenerator(seed).containment_pair()
                seed += 1
                if q1.canonical_key() in seen:
                    continue
                seen.add(q1.canonical_key())
                chase = engine.check(q1, q2).chase_result
                if chase is not None and chase.instance is not None:
                    instances.append(weakref.ref(chase.instance))
            del chase
            gc.collect()
            alive = sum(ref() is not None for ref in instances)
            assert engine.stats()["service"]["decided_cached"] == 64
        assert len(instances) > capacity
        assert alive <= capacity

    def test_first_check_holds_the_chase_and_a_cache_hit_the_certificate(
        self, joinable_pair
    ):
        q1, q2 = joinable_pair
        with Engine() as engine:
            first = engine.check(q1, q2)
            again = engine.check(q1, q2)
            assert engine.service.stats.result_hits == 1
        assert first.chase_result is not None
        assert again.chase_result is None and again.certificate is not None
        assert again.contained and again.verify()

    def test_pool_results_come_back_detached_and_verify(self):
        with Engine(max_workers=2) as engine:
            engine.check_all(_corpus(n_groups=2, seed=5))
            assert engine.service.pool.warm
            results = engine.check_all(_corpus(n_groups=3, seed=12))
            assert engine.service.pool.stats.pools_started == 1
        assert len({r.q1.canonical_key() for r in results}) >= 2
        assert all(r.chase_result is None for r in results)
        assert all(r.verify() for r in results)


class TestBudgetInheritance:
    def test_service_envelope_applies_without_request_budget(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine(budget=ExecutionBudget(deadline_seconds=0.0)) as engine:
            result = engine.check(q1, q2)
        assert result.unknown

    def test_request_cannot_loosen_the_envelope(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine(budget=ExecutionBudget(deadline_seconds=0.0)) as engine:
            result = engine.check(
                q1, q2, budget=ExecutionBudget(deadline_seconds=1000.0)
            )
        assert result.unknown

    def test_request_budget_tightens_open_envelope(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine() as engine:
            result = engine.check(
                q1, q2, budget=ExecutionBudget(deadline_seconds=0.0)
            )
            assert result.unknown
            # The same check without the tight budget still decides.
            assert engine.check(q1, q2).contained


class TestClose:
    def test_close_drains_and_rejects(self, joinable_pair):
        q1, q2 = joinable_pair
        engine = Engine()
        engine.check(q1, q2)
        assert engine.close(timeout=30) is True
        assert engine.closed
        with pytest.raises(AdmissionRejected) as exc_info:
            engine.check(q1, q2)
        assert exc_info.value.reason == "draining"

    def test_close_leaves_no_worker_processes(self):
        before = {p.pid for p in multiprocessing.active_children()}
        engine = Engine(max_workers=2)
        engine.check_all(_corpus(n_groups=3))
        assert engine.close(timeout=60) is True
        leaked = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in before and p.is_alive()
        ]
        assert not leaked, f"leaked worker processes: {leaked}"
        assert not engine.service.pool.warm

    def test_close_is_idempotent_and_context_manager(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine() as engine:
            engine.check(q1, q2)
            engine.close()
        assert engine.closed

    def test_per_request_span_emitted(self, joinable_pair):
        q1, q2 = joinable_pair
        obs = Observability(tracer=Tracer())
        with Engine(obs=obs) as engine:
            engine.check(q1, q2)
        names = [span.name for span in obs.tracer.spans]
        assert "service.check" in names
