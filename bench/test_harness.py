"""Self-tests of the benchmark harness: ``python -m pytest bench -q``.

They keep the harness honest when the program changes under it: a renamed
function fails :func:`test_every_wrap_target_resolves` and the smoke runs,
instead of quietly printing zeros.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from bench import ROOT, SRC

sys.path.insert(0, str(SRC))

from bench import tracing  # noqa: E402
from bench.suite import END_TO_END, TIMINGS, run_workload  # noqa: E402
from bench.tracing import SpanRecord, layer_metrics, self_times  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

#: Spans each workload must reach in a traced run (the layers that do its
#: work), and spans that must stay at zero calls there.
SERVE_FRONT = (
    "serve.decode",
    "serve.admit",
    "serve.execute",
    "serve.parse",
    "serve.route",
    "serve.encode",
    "service.check",
)
DECIDE = (
    "queue.admit_wait",
    "containment.check",
    "store.session",
    "store.session_close",
    "chase.extend",
    "hom.search",
)
EXPECTED = {
    "serve-zipf": (SERVE_FRONT, ("chase.extend", "snapshot.save", "pool.acquire")),
    "serve-cold": (SERVE_FRONT + DECIDE, ("snapshot.load", "snapshot.save", "pool.acquire")),
    "batch-cyclic": (
        ("service.check_all", "containment.check_all", "pool.acquire"),
        ("serve.parse", "snapshot.load", "snapshot.save"),
    ),
    "serve-restart": (
        SERVE_FRONT + DECIDE + ("snapshot.load", "snapshot.save"),
        ("pool.acquire",),
    ),
}

#: Prints a digest of the first request lines of every workload's inputs.
_LINES_SCRIPT = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
from bench.workloads import BatchStream, PairStream, request_body, with_id, zipf_ranks
seed = int(sys.argv[2])
stream = PairStream(seed).take(64)
lines = [with_id(stream.bodies[r], i) for i, r in enumerate(zipf_ranks(seed, 64, 200))]
lines += [with_id(b, i) for i, b in enumerate(PairStream(seed).take(200).bodies)]
lines += [request_body(q1, q2) for q1, q2 in BatchStream(seed).batch(2)]
print(hashlib.blake2b("\\n".join(lines).encode()).hexdigest())
"""


def _lines_digest(seed: int, hash_seed: str) -> str:
    env = {"PYTHONPATH": str(ROOT), "PYTHONHASHSEED": hash_seed, "PATH": ""}
    result = subprocess.run(
        [sys.executable, "-c", _LINES_SCRIPT, str(SRC), str(seed)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return result.stdout.strip()


def test_every_wrap_target_resolves():
    for span, module, attribute, _ in tracing.TARGETS:
        _, _, target = tracing.resolve(module, attribute)
        assert callable(target), span


def test_benchmark_json_names_the_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][:3] == ["python3", "-m", "bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    units = tracing.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == units


def test_same_seed_gives_identical_request_lines():
    first = _lines_digest(3, "1")
    assert first == _lines_digest(3, "2")
    assert first != _lines_digest(4, "1")


def _span(id, name, start, end, cpu=0.0, parent=0, rid=None, note=None):
    return SpanRecord(id, name, start, end, cpu, parent, 1, rid, note)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(1, "outer", 0.0, 10.0, cpu=8.0),
        _span(2, "a", 1.0, 3.0, cpu=1.5, parent=1),
        _span(3, "b", 2.0, 5.0, cpu=2.0, parent=1),  # overlaps a: union 1..5
        _span(4, "c", 9.0, 12.0, cpu=0.5, parent=1),  # clipped to 9..10
        _span(5, "d", 2.5, 2.75, cpu=0.25, parent=3),  # grandchild of outer
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx((10.0 - 4.0 - 1.0, 8.0 - 4.0))
    assert own[3] == pytest.approx((3.0 - 0.25, 2.0 - 0.25))
    assert own[5] == pytest.approx((0.25, 0.25))


def test_layer_metrics_derive_queue_wait_and_respect_windows():
    spans = [
        _span(1, "serve.admit", 0.0, 0.5, cpu=0.5, rid=7),
        _span(2, "serve.execute", 2.0, 6.0, cpu=3.0, rid=7),
        _span(3, "serve.parse", 2.0, 4.0, cpu=2.0, parent=2, rid=7),
        _span(4, "serve.parse", 50.0, 51.0, cpu=1.0, rid=8),  # outside
        # A later phase reuses request id 7.
        _span(5, "serve.admit", 8.0, 8.25, cpu=0.25, rid=7),
        _span(6, "serve.execute", 8.5, 9.0, cpu=0.5, rid=7),
    ]
    metrics = layer_metrics([spans], [(0.0, 10.0)], 2, {})
    assert metrics["serve.queue_wait.calls_per_op"] == 1
    assert metrics["serve.queue_wait.self_ms_per_op"] == pytest.approx((1500.0 + 250.0) / 2)
    assert metrics["serve.parse.calls_per_op"] == 0.5
    assert metrics["serve.execute.self_ms_per_op"] == pytest.approx((2000.0 + 500.0) / 2)
    assert metrics["serve.parse.share"] == pytest.approx(2.0 / 4.25)
    assert set(metrics) == set(tracing.per_layer_units())


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reaches_the_layers_that_do_the_work(workload):
    outcome = run_workload(workload, seed=0, seconds=2.0, trace=True)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted > 0
    assert set(outcome.metrics) == set(END_TO_END) | set(TIMINGS)
    busy, idle = EXPECTED[workload]
    calls = {name: outcome.per_layer[f"{name}.calls_per_op"] for name in busy + idle}
    assert [n for n in busy if calls[n] == 0] == []
    assert [n for n in idle if calls[n] != 0] == []
