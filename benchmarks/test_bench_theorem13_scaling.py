"""E9 — Theorem 13: scaling of the decision procedure with query size.

One parametrised benchmark per size gives the scaling series directly in
the pytest-benchmark table; the E9 experiment report adds the per-phase
(chase vs homomorphism) breakdown.
"""

import pytest

from repro import ContainmentChecker
from repro.workloads import QueryGenParams, QueryGenerator


def make_pair(size: int):
    params = QueryGenParams(
        n_atoms=size, n_variables=size + 2, cycle_length=1, head_arity=1
    )
    return QueryGenerator(100 + size, params).containment_pair()


class TestTheorem13Scaling:
    def test_scaling_report(self, reports):
        report = reports("E9")
        rows = report.data["rows"]
        assert len(rows) >= 3
        print()
        print(report.render())
        # Bounds grow with size — the quadratic |q1|*|q2| factor.
        bounds = [r["bound"] for r in rows]
        assert bounds == sorted(bounds) and bounds[-1] > bounds[0]

    @pytest.mark.parametrize("size", [2, 4, 6, 8])
    def test_containment_scaling(self, benchmark, size):
        q1, q2 = make_pair(size)

        def decide():
            # Fresh checker per call: no cross-round chase caching.
            return ContainmentChecker().check(q1, q2)

        result = benchmark.pedantic(decide, rounds=3, iterations=1, warmup_rounds=1)
        assert result is not None
