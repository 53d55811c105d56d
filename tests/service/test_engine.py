"""ContainmentService / Engine: coalescing, warm batches, shutdown."""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import threading
import time
import tracemalloc
import weakref

import pytest

from repro.api import Engine, StoreConfig
from repro.core.errors import AdmissionRejected
from repro.core.query import ConjunctiveQuery
from repro.core.substitution import Substitution
from repro.core.terms import Constant, Variable
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


def _alpha_variant(query: ConjunctiveQuery, name: str) -> ConjunctiveQuery:
    """*query* under another name with every variable renamed."""
    renaming = Substitution(
        {v: Variable(f"{name.upper()}_{v.name}") for v in query.variables()}
    )
    return ConjunctiveQuery(name, query.apply(renaming).head, query.apply(renaming).body)


class TestVerdictCache:
    """Cache entries are request-independent and bound to each caller."""

    def test_cached_verdict_retains_at_most_2kb(self):
        # Pairs are generated while tracing, as a server parses them per
        # request, so whatever an entry keeps of them is counted.
        tracemalloc.start()
        try:
            gen = QueryGenerator(7)
            pairs, seen = [], set()
            while len(pairs) < 500:
                q1, q2 = gen.containment_pair()
                key = hash((q1.canonical_key(), q2.canonical_key()))
                if key not in seen:
                    seen.add(key)
                    pairs.append((q1, q2))
            del q1, q2
            with Engine(store_config=StoreConfig(capacity=8)) as engine:
                for q1, q2 in pairs:
                    engine.check(q1, q2)
                del q1, q2
                pairs.clear()
                gc.collect()
                results = engine.service._results
                entries = len(results)
                held = tracemalloc.get_traced_memory()[0]
                results.clear()
                gc.collect()
                per_entry = (held - tracemalloc.get_traced_memory()[0]) / entries
        finally:
            tracemalloc.stop()
        assert entries == 500
        assert per_entry <= 2048, f"{per_entry:.0f} bytes per cached verdict"

    def test_pair_key_is_exact(self, joinable_pair):
        from repro.core.atoms import member
        from repro.service.engine import _pair_key_bytes

        q1, q2 = joinable_pair
        assert _pair_key_bytes(q1, q2) == _pair_key_bytes(
            _alpha_variant(q1, "a"), _alpha_variant(q2, "b")
        )
        assert _pair_key_bytes(q1, q2) != _pair_key_bytes(q2, q1)
        # Length prefixes keep separator characters inside names apart.
        x = Variable("X")
        tricky = [
            ConjunctiveQuery("q", (x,), (member(x, Constant(name)),))
            for name in ("a#v0", "a", "c1:a")
        ]
        keys = {_pair_key_bytes(a, b) for a in tricky for b in tricky}
        assert len(keys) == len(tricky) ** 2

    def test_alpha_variant_hit_is_bound_to_the_callers_queries(self, mandatory_pair):
        q1, q2 = mandatory_pair
        v1, v2 = _alpha_variant(q1, "mine"), _alpha_variant(q2, "theirs")
        with Engine() as engine:
            first = engine.check(q1, q2)
            hit = engine.check(v1, v2)
            assert engine.service.stats.result_hits == 1
        assert first.contained and hit.contained
        assert hit.q1 is v1 and hit.q2 is v2
        assert hit.chase_result is None
        assert set(hit.witness.domain()) == v2.variables()
        assert v1.variables() & {t for _, t in hit.witness.items()}
        assert hit.verify()
        assert hit.witness_level == first.witness_level
        assert hit.levels_chased == first.levels_chased
        bogus = Substitution({v: Constant("nowhere") for v in v2.variables()})
        assert not dataclasses.replace(hit, witness=bogus).verify()

    def test_explain_hit_rebinds_provenance_names(self, joinable_pair):
        q1, q2 = joinable_pair
        v1, v2 = _alpha_variant(q1, "mine"), _alpha_variant(q2, "theirs")
        with Engine() as engine:
            first = engine.explain(q1, q2)
            hit = engine.explain(v1, v2)
            assert engine.service.stats.result_hits == 1
        assert hit.provenance is not None
        assert (hit.provenance.q1, hit.provenance.q2) == ("mine", "theirs")
        assert hit.provenance.witness_levels == first.provenance.witness_levels

    def test_check_all_hits_are_bound_per_pair(self, mandatory_pair):
        q1, q2 = mandatory_pair
        variants = [(_alpha_variant(q1, f"a{i}"), _alpha_variant(q2, f"b{i}")) for i in range(3)]
        with Engine() as engine:
            engine.check(q1, q2)
            results = engine.check_all(variants, parallel=False)
            assert engine.service.stats.result_hits == 3
        for (v1, v2), result in zip(variants, results):
            assert result.q1 is v1 and result.q2 is v2
            assert result.contained and result.verify()

    def test_unknown_is_never_cached(self, joinable_pair):
        q1, q2 = joinable_pair
        with Engine(budget=ExecutionBudget(deadline_seconds=0.0)) as engine:
            assert engine.check(q1, q2).unknown
            assert engine.check(q1, q2).unknown
            assert all(r.unknown for r in engine.check_all([(q1, q2)], parallel=False))
            stats = engine.stats()["service"]
        assert stats["decided_cached"] == 0
        assert stats["result_hits"] == 0


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
