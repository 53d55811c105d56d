"""The four workloads: their fixed settings, seeded inputs and the oracle.

Every input is a function of the workload seed alone, so the same seed
gives byte-identical request lines.  The program never sees the seed, only
the generated rule strings.  Requires ``src/`` on ``sys.path`` (the
benchmark's entry points put it there).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.containment.bounded import ContainmentChecker
from repro.core.atoms import MANDATORY
from repro.flogic.printer import query_to_flogic
from repro.workloads.query_gen import QueryGenerator, QueryGenParams, specialize

__all__ = [
    "Workload",
    "WORKLOADS",
    "PairStream",
    "BatchStream",
    "zipf_ranks",
    "request_body",
    "with_id",
    "reference_decisions",
    "verdict_digest",
]


@dataclass(frozen=True)
class Workload:
    """Fixed settings of one workload (never tuned at run time)."""

    name: str
    why: str
    #: Open-loop arrival rate in requests per second (0: no open loop).
    rate: float = 0.0
    #: Latency limit of the open loop, timed from each request's due time.
    limit_ms: float = 0.0
    #: Closed-loop completions per second measured when the benchmark was
    #: written.  It only sizes the fixed work of the closed loop, so that a
    #: run lasts about ``--seconds``; the work never depends on the speed of
    #: the code under test.
    capacity: float = 0.0
    #: Share of ``--seconds`` given to the open loop; the closed loop gets
    #: the rest.
    open_share: float = 0.65

    def open_count(self, seconds: float) -> int:
        """Requests in the open loop of a *seconds* run."""
        return round(self.rate * seconds * self.open_share)

    def closed_count(self, seconds: float) -> int:
        """Requests (batch-cyclic: pairs) in the closed loop of the run."""
        return round(self.capacity * seconds * (1.0 - self.open_share))


#: Open-loop rates are about 40% of the closed-loop capacity measured on a
#: 2-CPU machine when the benchmark was written (see bench/CALIBRATION.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "serve-zipf",
            "64 Zipf(1.2) keys that fit every cache: the result cache answers, "
            "so the TCP front door and F-logic parsing do the work",
            rate=500.0,
            limit_ms=10.0,
            capacity=1250.0,
        ),
        Workload(
            "serve-cold",
            "every request a new pair: no result reuse, the 128-entry store LRU "
            "overflows, and chase plus search do the work behind TCP",
            rate=100.0,
            limit_ms=50.0,
            capacity=260.0,
        ),
        Workload(
            "batch-cyclic",
            "Engine.check_all batches of mandatory-type-cycle queries: infinite "
            "chases to the Theorem-12 bound on the warm process pool",
            capacity=110.0,
            open_share=0.0,
        ),
        Workload(
            "serve-restart",
            "fill a snapshot store over TCP, SIGKILL, restart and replay: the "
            "only workload where snapshot writes and hydration do the work",
            rate=100.0,
            limit_ms=50.0,
            open_share=0.7,
        ),
    )
}

#: serve-zipf key set and popularity skew.
ZIPF_KEYS = 64
ZIPF_S = 1.2
#: serve-cold pairs sent once per server before measuring, so lazy imports
#: and other first-call costs land in set-up; never among measured pairs.
COLD_WARMUP = 16
#: batch-cyclic batch shape and query family.
GROUPS_PER_BATCH = 6
PAIRS_PER_GROUP = 3
BATCH_PARAMS = QueryGenParams(n_atoms=6, n_variables=8, cycle_length=2, head_arity=1)
#: Share of batch groups whose first pair is related (q1 specialises q2).
BATCH_RELATED = 0.6


def request_body(q1, q2) -> str:
    """The wire line of one ``check`` request, without its id."""
    return json.dumps(
        {"op": "check", "q1": query_to_flogic(q1), "q2": query_to_flogic(q2)}
    )


def with_id(body: str, rid: int) -> str:
    """*body* with ``"id"`` as its first field (ids are assigned at send)."""
    return '{"id": %d, %s' % (rid, body[1:])


class PairStream:
    """Distinct containment pairs of ``QueryGenerator(seed)``, on demand.

    Pairs are distinct by the canonical keys of both queries, so no two
    requests of a stream share a result-cache entry.  Indexing past the
    end generates more, in the same deterministic order.
    """

    def __init__(self, seed: int):
        self._gen = QueryGenerator(seed)
        self._seen: set = set()
        self.pairs: list = []
        self.bodies: list[str] = []

    def take(self, count: int) -> "PairStream":
        """Make sure at least *count* pairs exist."""
        while len(self.pairs) < count:
            q1, q2 = self._gen.containment_pair()
            key = (q1.canonical_key(), q2.canonical_key())
            if key in self._seen:
                continue
            self._seen.add(key)
            self.pairs.append((q1, q2))
            self.bodies.append(request_body(q1, q2))
        return self

    def body(self, index: int) -> str:
        return self.take(index + 1).bodies[index]


def zipf_ranks(seed: int, n_keys: int, count: int, s: float = ZIPF_S) -> list[int]:
    """*count* key ranks drawn with Zipf(*s*) popularity over *n_keys*."""
    cdf, total = [], 0.0
    for rank in range(1, n_keys + 1):
        total += rank**-s
        cdf.append(total)
    rng = random.Random(seed)
    return [bisect.bisect_left(cdf, rng.random() * total) for _ in range(count)]


class BatchStream:
    """batch-cyclic batches: 6 groups sharing q1, 3 pairs per group.

    A group's first pair is ``(specialize(base), base)`` with probability
    0.6 (contained by construction) and an unrelated pair otherwise; its
    other two pairs ask the same q1 against fresh queries.  About a fifth
    of all pairs are contained, and the median Theorem-12 bound is 96.
    """

    def __init__(self, seed: int):
        self._gen = QueryGenerator(seed, BATCH_PARAMS)
        self._rng = random.Random(seed)
        self.batches: list[list] = []

    def batch(self, index: int) -> list:
        while len(self.batches) <= index:
            pairs = []
            for _ in range(GROUPS_PER_BATCH):
                q1 = None
                while q1 is None or _branching(q1):
                    base = self._gen.query()
                    if self._rng.random() < BATCH_RELATED:
                        q1 = specialize(base, rng=self._rng)
                    else:
                        q1 = self._gen.query()
                pairs.append((q1, base))
                pairs.extend(
                    (q1, self._gen.query()) for _ in range(PAIRS_PER_GROUP - 1)
                )
            self.batches.append(pairs)
        return self.batches[index]


def _branching(query) -> bool:
    """Whether some class of *query* has two mandatory attributes.

    With a type cycle through such a class every chase level doubles, so
    the chase to the Theorem-12 bound never ends in practice (``specialize``
    makes one by merging two cycle classes).  Batches leave such q1 out.
    """
    classes = [atom.args[1] for atom in query.body if atom.predicate == MANDATORY]
    return len(classes) != len(set(classes))


def reference_decisions(pairs: Iterable) -> list[str]:
    """Decide *pairs* with the reference the property suites compare against:
    the monolithic schedule over the baseline backtracking search."""
    checker = ContainmentChecker(anytime=False, kernel="baseline")
    return [checker.check(q1, q2).decision.name for q1, q2 in pairs]


def verdict_digest(decisions: Sequence[str]) -> str:
    """blake2b over decisions in request-index order (16 hex digits)."""
    return hashlib.blake2b("\n".join(decisions).encode(), digest_size=8).hexdigest()
