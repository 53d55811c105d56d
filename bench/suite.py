"""Run one workload end to end and turn what it observed into metrics.

Each runner starts the program, sets it up several times to time set-up,
measures a fixed amount of work, checks every verdict, and returns an
:class:`Outcome`.  A traced run is the same run with the timing wrappers
installed in the program's processes; it adds the per-layer metrics.

The machine the numbers come from is shared, and its speed drifts for
seconds at a time.  So the statistics are medians over parts of a phase:
latency percentiles are the median of per-second percentiles, and
throughput is the median rate of twelve consecutive blocks of work.
"""

from __future__ import annotations

import asyncio
import json
import math
import shutil
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from . import OUT, ROOT
from . import tracing
from .loadgen import (
    PATIENCE_S,
    ChildProcess,
    ClosedResult,
    OpenResult,
    Pipeline,
    ServerProcess,
    closed_loop,
    open_loop,
)
from .workloads import (
    COLD_WARMUP,
    PAIRS_PER_GROUP,
    WORKLOADS,
    ZIPF_KEYS,
    BatchStream,
    PairStream,
    reference_decisions,
    verdict_digest,
    zipf_ranks,
)

__all__ = ["Outcome", "END_TO_END", "TIMINGS", "run_workload", "percentile"]

#: Gated end-to-end metrics (``BENCHMARK.json``): name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: End-to-end timings every workload also reports, ungated: between sets of
#: runs of identical code their medians moved by more than 0.10, the largest
#: bound the benchmark allows them (bench/CALIBRATION.md).
TIMINGS = {
    "p50_ms": ("ms", "lower"),
    "p90_ms": ("ms", "lower"),
    "throughput_rps": ("req/s", "higher"),
}

#: Times set-up is repeated per run; ``setup_s`` is the median.  Half the
#: set-ups come before the measured phases and half after them, so the
#: median samples the machine, whose speed drifts, at both ends of the run.
SETUPS = 8
#: Open-loop percentiles are taken per slice of this many seconds of
#: schedule, and the median over the slices is reported.
SLICE_S = 1.0
#: Closed-loop throughput is the median rate of this many blocks of work.
BLOCKS = 12
#: An open loop is invalid when the generator's p99 lag (per slice, median
#: over slices, so a few seconds of a stalled machine do not count) exceeds
#: this.
MAX_LAG_P99_S = 0.005
#: ... or when completions trail the schedule by more than this at its end.
MAX_TRAIL_S = 1.0
#: serve-cold and batch-cyclic verify a deterministic 1-in-4 sample.
ORACLE_EVERY = 4
ORACLE_CAP = 1000

_DECIDED = ("TRUE", "FALSE")


@dataclass
class Outcome:
    """Everything one workload run reports."""

    workload: str
    metrics: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Wrong answers and invalid phases; any entry fails the run.
    problems: list = field(default_factory=list)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def sliced(result: OpenResult, rate: float, values: list, stat: Callable) -> float:
    """Median over the whole schedule slices of ``stat(values in the slice)``.

    *values* are per request (latencies, lags); ``None`` entries are left
    out.  A last slice shorter than SLICE_S joins the one before it.
    """
    start = result.window[0]
    whole = max(1, int(len(result.due) / rate // SLICE_S))
    slices: dict[int, list] = defaultdict(list)
    for due, value in zip(result.due, values):
        if value is not None:
            slices[min(int((due - start) // SLICE_S), whole - 1)].append(value)
    return statistics.median(stat(v) for v in slices.values() if v)


def _p90(values) -> float:
    return percentile(values, 90)


def _p99(values) -> float:
    return percentile(values, 99)


def block_rate(start: float, completions: list, per_completion: int = 1) -> float:
    """Median rate of BLOCKS consecutive blocks of completions (per second)."""
    n = len(completions)
    blocks = min(BLOCKS, n)
    rates, begin, done = [], start, 0
    for k in range(1, blocks + 1):
        upto = round(n * k / blocks)
        end = completions[upto - 1]
        rates.append((upto - done) * per_completion / max(end - begin, 1e-9))
        begin, done = end, upto
    return statistics.median(rates)


class Verdicts:
    """Every answer a workload received, checked as it is recorded.

    A response that is not ok, or not a TRUE/FALSE decision, fails; so does
    a pair answered differently twice (across phases, and across servers,
    which is what makes replay-equals-fill hold in serve-restart) and a pair
    whose decision differs from the reference checker's.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.by_pair: dict[int, str] = {}
        self.problems: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(message)

    def record(self, pair: int, decision: Optional[str], detail: object = None) -> None:
        self.attempted += 1
        if decision not in _DECIDED:
            self._fail(f"pair {pair}: no decision ({detail!r})")
            return
        seen = self.by_pair.setdefault(pair, decision)
        if seen != decision:
            self._fail(f"pair {pair}: answered {seen} and then {decision}")

    def record_response(self, pair: int, response: Optional[dict]) -> None:
        ok = response is not None and response.get("ok")
        self.record(pair, response.get("decision") if ok else None, response)

    def check_oracle(self, pairs: dict) -> int:
        """Compare the recorded decisions of *pairs* (id -> (q1, q2))."""
        ids = sorted(i for i in pairs if i in self.by_pair)
        expected = reference_decisions(pairs[i] for i in ids)
        for i, want in zip(ids, expected):
            if self.by_pair[i] != want:
                self._fail(f"pair {i}: answered {self.by_pair[i]}, reference {want}")
        return len(ids)

    def digest(self, ids) -> str:
        return verdict_digest([self.by_pair.get(i, "-") for i in ids])


def _session(server: ServerProcess, phases: Callable) -> object:
    """Run ``phases(pipe)`` on fresh load connections in one event loop."""

    async def main():
        pipe = await Pipeline().open(server.host, server.port)
        try:
            return await phases(pipe)
        finally:
            await pipe.close()

    return asyncio.run(main())


class _Run:
    """State of one workload run: work directory, servers, verdicts, result."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = Outcome(workload)
        self.verdicts = Verdicts()
        self.dir = OUT / f"run-{workload}-{seed}-{time.time_ns()}"
        self.dir.mkdir(parents=True)
        self.servers: list[ServerProcess] = []
        self.span_files: list[Path] = []
        self.setups: list[float] = []

    def spawn(self, serve_args=()) -> ServerProcess:
        k = len(self.servers) + 1
        spans = self.dir / f"spans-{k}.json" if self.trace else None
        server = ServerProcess(list(serve_args), self.dir / f"server-{k}.log", spans)
        self.servers.append(server)
        return server

    def setup_servers(
        self, count: int, warmup: Optional[Callable] = None, serve_args=()
    ) -> ServerProcess:
        """Spawn *count* servers; time spawn-to-ready plus *warmup* for each.

        All but the last are drained; the last one is returned running, to
        serve the measured phases.
        """
        for k in range(count):
            server = self.spawn(serve_args)
            self.setups.append(server.ready_s + (warmup(server) if warmup else 0.0))
            if k < count - 1:
                server.drain()
        return server

    def closed_phase(self, server: ServerProcess, bodies: list[str], ids) -> ClosedResult:
        """A closed loop over *bodies*, recording each verdict under *ids*."""
        result = _session(server, lambda pipe: closed_loop(pipe, bodies))
        for index, response in result.responses:
            self.verdicts.record_response(ids[index], response)
        return result

    def open_phase(self, server: ServerProcess, bodies: list[str], ids: list[int]):
        """An open loop at the workload's rate; sets the latency metrics."""
        w, out = self.w, self.out
        result = _session(server, lambda pipe: open_loop(pipe, bodies, w.rate))
        for i, response in enumerate(result.responses):
            self.verdicts.record_response(ids[i], response)
        answered = [t for t in result.latencies if t is not None]
        p50 = sliced(result, w.rate, result.latencies, statistics.median)
        p90 = sliced(result, w.rate, result.latencies, _p90)
        out.metrics["p50_ms"] = 1000.0 * p50
        out.metrics["p90_ms"] = 1000.0 * p90
        missed = sum(
            1
            for t, r in zip(result.latencies, result.responses)
            if t is None or t * 1000.0 > w.limit_ms or not (r or {}).get("ok")
        )
        lag_p99 = sliced(result, w.rate, result.lags, _p99)
        out.diagnostics.update(
            open_requests=len(bodies),
            phase_p90_ms=1000.0 * _p90(answered),
            phase_p99_ms=1000.0 * _p99(answered),
            slo_limit_ms=w.limit_ms,
            slo_miss_frac=missed / len(bodies),
            lag_p99_ms=1000.0 * lag_p99,
            trail_s=result.trail_s,
        )
        if lag_p99 > MAX_LAG_P99_S:
            out.problems.append(
                f"invalid open loop: generator p99 lag {1000 * lag_p99:.2f} ms "
                f"> {1000 * MAX_LAG_P99_S:.0f} ms"
            )
        if result.trail_s > MAX_TRAIL_S:
            out.problems.append(
                f"invalid open loop: completions trail the schedule by "
                f"{result.trail_s:.2f} s > {MAX_TRAIL_S:.0f} s (growing backlog)"
            )
        return result

    def finish_trace(self, windows, ops: int, delta: dict) -> None:
        processes = [tracing.load_spans(p) for p in self.span_files]
        self.out.per_layer = tracing.layer_metrics(processes, windows, ops, delta)
        spans = [list(s) for spans in processes for s in spans]
        path = OUT / f"trace-{self.w.name}.json"
        path.write_text(json.dumps({"workload": self.w.name, "spans": spans}))
        self.out.diagnostics["trace_file"] = str(path.relative_to(ROOT))

    def finish(self) -> Outcome:
        out = self.out
        out.metrics["setup_s"] = statistics.median(self.setups)
        out.diagnostics["setup_samples_s"] = self.setups
        out.attempted = self.verdicts.attempted
        out.failed = self.verdicts.failed
        out.problems = self.verdicts.problems + out.problems
        out.diagnostics["failed_frac"] = out.failed / max(out.attempted, 1)
        return out

    def close(self) -> None:
        for server in self.servers:
            server.kill()
        shutil.rmtree(self.dir, ignore_errors=True)


def _serve_measured(run: _Run, warmup, open_bodies, open_ids, closed_bodies, closed_ids):
    """Set up, run the open loop then the closed loop, and set up again.

    Traces the two loops when tracing.
    """
    server = run.setup_servers(SETUPS // 2, warmup)
    before = server.stats() if run.trace else None
    opened = run.open_phase(server, open_bodies, open_ids)
    closed = run.closed_phase(server, closed_bodies, closed_ids)
    run.out.metrics["throughput_rps"] = block_rate(closed.start, closed.completions)
    run.out.metrics["peak_rss_mb"] = server.peak_rss_mb()
    run.out.diagnostics["closed_requests"] = len(closed_bodies)
    delta = tracing.stats_delta(server.stats(), before) if run.trace else None
    server.drain()
    if run.trace:
        run.span_files.append(server.spans)
        ops = len(opened.responses) + len(closed.responses)
        run.finish_trace([opened.window, closed.window], ops, delta)
    run.setup_servers(SETUPS - SETUPS // 2, warmup).drain()


def run_serve_zipf(run: _Run) -> None:
    w = run.w
    stream = PairStream(run.seed).take(ZIPF_KEYS)
    keys = list(range(ZIPF_KEYS))
    open_n = w.open_count(run.seconds)
    ranks = zipf_ranks(run.seed, ZIPF_KEYS, open_n + w.closed_count(run.seconds))
    opened, closed = ranks[:open_n], ranks[open_n:]
    _serve_measured(
        run,
        lambda server: run.closed_phase(server, stream.bodies, keys).elapsed,
        [stream.bodies[r] for r in opened],
        opened,
        [stream.bodies[r] for r in closed],
        closed,
    )
    run.verdicts.check_oracle({i: stream.pairs[i] for i in keys})
    run.out.diagnostics["verdict_digest"] = run.verdicts.digest(keys)


def run_serve_cold(run: _Run) -> None:
    w = run.w
    first = COLD_WARMUP + w.open_count(run.seconds)
    total = first + w.closed_count(run.seconds)
    stream = PairStream(run.seed).take(total)
    warm_bodies, warm = stream.bodies[:COLD_WARMUP], range(COLD_WARMUP)
    _serve_measured(
        run,
        lambda server: run.closed_phase(server, warm_bodies, warm).elapsed,
        stream.bodies[COLD_WARMUP:first],
        range(COLD_WARMUP, first),
        stream.bodies[first:total],
        range(first, total),
    )
    measured = range(COLD_WARMUP, total)
    sample = [i for i in measured if i % ORACLE_EVERY == 0][:ORACLE_CAP]
    checked = run.verdicts.check_oracle({i: stream.pairs[i] for i in sample})
    run.out.diagnostics["oracle_checked"] = checked
    run.out.diagnostics["verdict_digest"] = run.verdicts.digest(measured)


def run_serve_restart(run: _Run) -> None:
    w, out = run.w, run.out
    n = w.open_count(run.seconds)
    stream = PairStream(run.seed).take(n)
    ids = list(range(n))
    serve_args = ["--store-path", str(run.dir / "store"), "--snapshot-policy", "always"]

    # The closed loop is the fill: every pair is new, so every miss is
    # chased and written to the snapshot store.
    filler = run.spawn(serve_args)
    before = filler.stats() if run.trace else None
    fill = run.closed_phase(filler, stream.bodies, ids)
    out.metrics["throughput_rps"] = block_rate(fill.start, fill.completions)
    deltas = []
    if run.trace:
        deltas.append(tracing.stats_delta(filler.stats(), before))
        filler.dump_spans()
        run.span_files.append(filler.spans)
    peak = filler.peak_rss_mb()
    filler.kill()

    # Set-up is restart-to-ready on the filled store (the first restart
    # follows the SIGKILL); the replay hydrates every run from the snapshots.
    server = run.setup_servers(SETUPS // 2, serve_args=serve_args)
    before = server.stats() if run.trace else None
    replay = run.open_phase(server, stream.bodies, ids)
    out.metrics["peak_rss_mb"] = max(peak, server.peak_rss_mb())
    if run.trace:
        deltas.append(tracing.stats_delta(server.stats(), before))
    server.drain()
    if run.trace:
        run.span_files.append(server.spans)
        run.finish_trace([fill.window, replay.window], 2 * n, tracing.add_deltas(*deltas))
    run.setup_servers(SETUPS - SETUPS // 2, serve_args=serve_args).drain()
    run.verdicts.check_oracle({i: stream.pairs[i] for i in ids})
    out.diagnostics["verdict_digest"] = run.verdicts.digest(ids)


def _batch_child(run: _Run, batches: int, spans: Optional[Path] = None) -> ChildProcess:
    """Start a batch process and record its set-up time once it is set up.

    With *batches* 0 the process only sets up, and it is waited for here.
    """
    args = ["bench.batch_child", str(run.seed), str(batches)]
    if not batches:
        args.append("--setup-only")
    if spans is not None:
        args += ["--spans", str(spans)]
    child = ChildProcess(args, run.dir / "batch.log")
    try:
        child.line()["ready"]
        ready_s = time.perf_counter() - child.started
        run.setups.append(ready_s + child.line()["setup_batch_s"])
    except BaseException:
        child.kill()
        raise
    if not batches:
        child.close()
    return child


def run_batch_cyclic(run: _Run) -> None:
    out = run.out
    stream = BatchStream(run.seed)
    size = len(stream.batch(0))
    batches = max(1, round(run.w.closed_count(run.seconds) / size))
    spans = run.dir / "spans-batch.json" if run.trace else None
    for _ in range(SETUPS // 2 - 1):
        _batch_child(run, 0)
    child = _batch_child(run, batches, spans)
    try:
        result = child.line(patience=PATIENCE_S + batches)["result"]
    finally:
        child.close()
    for _ in range(SETUPS - SETUPS // 2):
        _batch_child(run, 0)

    for pair, decision in enumerate(result["decisions"]):
        run.verdicts.record(pair, decision)
    latencies = result["latencies"]
    out.metrics["p50_ms"] = 1000.0 * statistics.median(latencies)
    out.metrics["p90_ms"] = 1000.0 * _p90(latencies)
    out.metrics["throughput_rps"] = block_rate(result["start"], result["ends"], size)
    out.metrics["peak_rss_mb"] = result["peak_rss_mb"]
    out.diagnostics.update(
        batches=batches,
        phase_p99_ms=1000.0 * _p99(latencies),
        positive_frac=result["decisions"].count("TRUE") / len(result["decisions"]),
    )
    if run.trace:
        run.span_files.append(spans)
        delta = tracing.stats_delta(result["stats_after"], result["stats_before"])
        window = (result["start"], result["ends"][-1])
        run.finish_trace([window], batches * size, delta)
    # Verify whole groups (they share q1's chase) from every 4th group.
    oracle = {}
    for b in range(batches + 1):
        for p, pair in enumerate(stream.batch(b)):
            pair_id = b * size + p
            if (pair_id // PAIRS_PER_GROUP) % ORACLE_EVERY == 0:
                oracle[pair_id] = pair
    out.diagnostics["oracle_checked"] = run.verdicts.check_oracle(oracle)
    out.diagnostics["verdict_digest"] = run.verdicts.digest(range(len(result["decisions"])))


RUNNERS = {
    "serve-zipf": run_serve_zipf,
    "serve-cold": run_serve_cold,
    "batch-cyclic": run_batch_cyclic,
    "serve-restart": run_serve_restart,
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Outcome:
    """Run *workload* once; the outcome's problems say whether it passed."""
    run = _Run(workload, seed, seconds, trace)
    try:
        RUNNERS[workload](run)
        return run.finish()
    finally:
        run.close()
