"""Timing wrappers around each layer's public functions, and span arithmetic.

The traced run of a workload installs one wrapper per entry in
:data:`TARGETS`.  Each wrapper patches the attribute its caller actually
looks up — ``repro.containment.bounded.find_homomorphism``, not the module
that defines the function — so the program itself is unchanged.  Spans stay
in memory (:class:`Recorder`) and are written out when the run ends.

A span records its name, start, end, parent span, thread and request id.
``serve.execute`` is the root of a request on a serve worker thread: it
publishes the request id in a thread-local, and every span opened below it
on that thread inherits the id.  Times come from ``time.perf_counter``,
which on Linux reads the system-wide monotonic clock, so spans written by
the server process line up with the phase windows the load generator
records.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

__all__ = [
    "TARGETS",
    "SPAN_NAMES",
    "QUEUE_WAIT",
    "RATIO_NAMES",
    "Recorder",
    "SpanRecord",
    "install",
    "resolve",
    "load_spans",
    "self_times",
    "layer_metrics",
    "per_layer_units",
    "stats_delta",
    "add_deltas",
]


class SpanRecord(NamedTuple):
    """One finished span (``parent`` and ``rid`` may be 0 / ``None``)."""

    id: int
    name: str
    start: float
    end: float
    #: Thread CPU seconds between start and end: the busy part of the span.
    cpu: float
    parent: int
    thread: int
    rid: object
    #: Wrapper-specific detail: a store outcome, whether a search found a
    #: witness, or how many chase levels an extension added.
    note: object = None


class _OpenSpan:
    __slots__ = ("id", "name", "start", "cpu_start", "parent", "rid", "note")


class Recorder:
    """In-memory span sink shared by every thread of one process."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, rid=None):
        """Time the ``with`` body as a child of this thread's open span."""
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span = _OpenSpan()
        span.id = next(self._ids)
        span.name = name
        span.parent = stack[-1] if stack else 0
        span.rid = rid if rid is not None else getattr(local, "rid", None)
        span.note = None
        stack.append(span.id)
        span.cpu_start = time.thread_time()
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            end = time.perf_counter()
            cpu = time.thread_time() - span.cpu_start
            stack.pop()
            self.spans.append(
                SpanRecord(
                    span.id,
                    name,
                    span.start,
                    end,
                    cpu,
                    span.parent,
                    threading.get_ident(),
                    span.rid,
                    span.note,
                )
            )

    @contextmanager
    def request(self, rid):
        """Publish *rid* as this thread's request id for the ``with`` body."""
        local = self._local
        previous = getattr(local, "rid", None)
        local.rid = rid
        try:
            yield
        finally:
            local.rid = previous

    def dump(self, path: Path) -> None:
        """Write every finished span to *path* (atomically, as JSON)."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps({"spans": [list(s) for s in list(self.spans)]}))
        os.replace(tmp, path)


# -- wrapper factories -------------------------------------------------------


def _plain(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _decode(recorder: Recorder, name: str, fn):
    """``decode_line``: the request id is known once the line is decoded."""

    @functools.wraps(fn)
    def wrapper(line):
        with recorder.span(name) as span:
            request = fn(line)
            span.rid = request.get("id")
            return request

    return wrapper


def _admit(recorder: Recorder, name: str, fn):
    """``ContainmentServer.admit`` runs on the event loop, request in hand."""

    @functools.wraps(fn)
    def wrapper(server, request, conn):
        with recorder.span(name, rid=request.get("id")):
            return fn(server, request, conn)

    return wrapper


def _execute(recorder: Recorder, name: str, fn):
    """``ContainmentServer.execute``: the root of a request's worker thread."""

    @functools.wraps(fn)
    def wrapper(server, request, op, tenant):
        with recorder.request(request.get("id")), recorder.span(name):
            return fn(server, request, op, tenant)

    return wrapper


def _found(recorder: Recorder, name: str, fn):
    """A witness search: the note records whether it found a witness."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            witness = fn(*args, **kwargs)
            span.note = witness is not None
            return witness

    return wrapper


def _extend(recorder: Recorder, name: str, fn):
    """``ChaseRun.extend_to``: the note records the chase levels added."""

    @functools.wraps(fn)
    def wrapper(run, *args, **kwargs):
        before = run.bound
        with recorder.span(name) as span:
            try:
                return fn(run, *args, **kwargs)
            finally:
                span.note = max(run.bound - before, 0)

    return wrapper


def _session(recorder: Recorder, name: str, fn):
    """``ChaseStore.session``, timed apart from the caller's work inside it.

    Opening the session (key lock, lookup, hydration, eviction) is
    *name*, noting the store outcome; closing it (write-back under the
    ``always`` policy) is ``<name>_close``.  The body belongs to the
    caller: the anytime checker runs its whole probe loop in a session.
    """

    @contextmanager
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        session = fn(*args, **kwargs)
        with recorder.span(name) as span:
            pair = session.__enter__()
            span.note = pair[1]
        try:
            yield pair
        except BaseException:
            with recorder.span(name + "_close"):
                if not session.__exit__(*sys.exc_info()):
                    raise
        else:
            with recorder.span(name + "_close"):
                session.__exit__(None, None, None)

    return wrapper


def _entered(recorder: Recorder, name: str, fn):
    """A context manager timed only while it is being entered (a wait)."""

    @contextmanager
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with ExitStack() as stack:
            with recorder.span(name):
                value = stack.enter_context(fn(*args, **kwargs))
            yield value

    return wrapper


#: ``(span, module, attribute, wrapper factory)`` for every timed call.
#: ``ContainmentChecker.check_all`` dispatches through
#: ``WorkerPool.acquire`` and submits to the executor itself, so
#: ``WorkerPool.submit`` is never called on that path; ``pool.acquire`` is
#: the pool call a batch really makes.
TARGETS = (
    ("serve.decode", "repro.serve.server", "decode_line", _decode),
    ("serve.admit", "repro.serve.server", "ContainmentServer.admit", _admit),
    ("serve.execute", "repro.serve.server", "ContainmentServer.execute", _execute),
    ("serve.parse", "repro.serve.server", "parse_rule", _plain),
    ("serve.route", "repro.serve.sharding", "ShardRouter.route", _plain),
    ("serve.encode", "repro.serve.server", "check_payload", _plain),
    ("service.check", "repro.service.engine", "ContainmentService.check", _plain),
    (
        "service.check_all",
        "repro.service.engine",
        "ContainmentService.check_all",
        _plain,
    ),
    ("queue.admit_wait", "repro.service.queue", "AdmissionQueue.admit", _entered),
    (
        "containment.check",
        "repro.containment.bounded",
        "ContainmentChecker.check",
        _plain,
    ),
    (
        "containment.check_all",
        "repro.containment.bounded",
        "ContainmentChecker.check_all",
        _plain,
    ),
    ("store.session", "repro.containment.store", "ChaseStore.session", _session),
    ("snapshot.load", "repro.store.snapshot", "SnapshotStore.load", _plain),
    ("snapshot.save", "repro.store.snapshot", "SnapshotStore.save", _plain),
    ("chase.extend", "repro.chase.engine", "ChaseRun.extend_to", _extend),
    ("hom.search", "repro.containment.bounded", "find_homomorphism", _found),
    (
        "hom.delta_search",
        "repro.containment.bounded",
        "find_homomorphism_delta",
        _found,
    ),
    ("pool.acquire", "repro.service.pool", "WorkerPool.acquire", _plain),
)

#: Derived, not wrapped: ``serve.execute`` start minus ``serve.admit`` end.
#: A pure wait, so it has calls and milliseconds but no busy share.
QUEUE_WAIT = "serve.queue_wait"

#: Every span a wrapper records (the session wrapper records two).
SPAN_NAMES = tuple(
    name
    for span, _, _, factory in TARGETS
    for name in ((span, span + "_close") if factory is _session else (span,))
)

#: Ratios taken from wrapper notes and from the program's stats counters.
RATIO_NAMES = (
    ("service.result_hit_ratio", "fraction"),
    ("service.coalesced_ratio", "fraction"),
    ("store.hit_ratio", "fraction"),
    ("store.extend_ratio", "fraction"),
    ("store.evictions_per_op", "count"),
    ("hom.found_ratio", "fraction"),
    ("hom.delta_found_ratio", "fraction"),
    ("kernel.fallback_ratio", "fraction"),
    ("kernel.nodes_per_search", "count"),
    ("chase.levels_per_extend", "count"),
    ("serve.rejections_per_op", "count"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name, in print order, with its unit."""
    units: dict[str, str] = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls_per_op"] = "count"
        units[f"{name}.self_ms_per_op"] = "ms"
        units[f"{name}.share"] = "fraction"
    units[f"{QUEUE_WAIT}.calls_per_op"] = "count"
    units[f"{QUEUE_WAIT}.self_ms_per_op"] = "ms"
    units.update(RATIO_NAMES)
    return units


def resolve(module: str, attribute: str):
    """``(owner, name, current value)`` of a dotted attribute in *module*."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Patch every target; returns ``(owner, name, original)`` to undo it."""
    undo = []
    for span, module, attribute, factory in TARGETS:
        owner, name, original = resolve(module, attribute)
        setattr(owner, name, factory(recorder, span, original))
        undo.append((owner, name, original))
    return undo


def load_spans(path: Path) -> list[SpanRecord]:
    """The spans a :meth:`Recorder.dump` wrote."""
    return [SpanRecord(*row) for row in json.loads(Path(path).read_text())["spans"]]


# -- arithmetic --------------------------------------------------------------


def self_times(spans: Iterable[SpanRecord]) -> dict[int, tuple[float, float]]:
    """Span id -> ``(self seconds, self CPU seconds)``.

    Self time is a span's duration minus the part of its interval that its
    children cover (the union of the children's intervals, clipped to the
    parent's).  Self CPU time is the span's thread CPU time minus its
    children's, which run on the same thread.
    """
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    child_cpu: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent:
            children[s.parent].append((s.start, s.end))
            child_cpu[s.parent] += s.cpu
    result = {}
    for s in spans:
        covered = 0.0
        run_start = run_end = None
        for a, b in sorted(children.get(s.id, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if run_end is None or a > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = a, b
            else:
                run_end = max(run_end, b)
        if run_end is not None:
            covered += run_end - run_start
        result[s.id] = ((s.end - s.start) - covered, s.cpu - child_cpu[s.id])
    return result


def _in_windows(t: float, windows: list[tuple[float, float]]) -> bool:
    return any(a <= t <= b for a, b in windows)


def _stat(stats: dict, section: str, key: str) -> float:
    return stats.get(section, {}).get(key, 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    processes: list[list[SpanRecord]],
    windows: list[tuple[float, float]],
    ops: int,
    stats_delta: dict,
) -> dict[str, float]:
    """The per-layer metrics of one workload.

    *processes* holds the span list of each traced process; spans whose
    start lies outside every measured *window* are ignored.  *ops* is the
    number of requests (or batch pairs) the windows served, and
    *stats_delta* the difference of the program's ``stats`` counters
    across them.

    Per span: ``calls_per_op``; ``self_ms_per_op``, the wall-clock self
    time, which includes waiting (for the GIL, a lock, a pool worker); and
    ``share``, the span's part of all spans' self CPU time, i.e. of the
    time the program was busy under a span.
    """
    calls: dict[str, int] = defaultdict(int)
    wall: dict[str, float] = defaultdict(float)
    cpu: dict[str, float] = defaultdict(float)
    notes: dict[str, list] = defaultdict(list)
    for spans in processes:
        own = self_times(spans)
        # A request id may recur in one process (a client restarts its ids
        # on a new connection), so each execute pairs with the last admit
        # of its id that had ended when the execute started.
        admit_ends: dict[object, list[float]] = defaultdict(list)
        for s in spans:
            if s.name == "serve.admit" and s.rid is not None:
                admit_ends[s.rid].append(s.end)
        for ends in admit_ends.values():
            ends.sort()
        for s in spans:
            if not _in_windows(s.start, windows):
                continue
            calls[s.name] += 1
            wall[s.name] += own[s.id][0]
            cpu[s.name] += own[s.id][1]
            if s.note is not None:
                notes[s.name].append(s.note)
            if s.name == "serve.execute" and s.rid in admit_ends:
                ends = admit_ends[s.rid]
                k = bisect.bisect_right(ends, s.start)
                if k:
                    calls[QUEUE_WAIT] += 1
                    wall[QUEUE_WAIT] += s.start - ends[k - 1]
    total_cpu = sum(cpu.values())
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES + (QUEUE_WAIT,):
        metrics[f"{name}.calls_per_op"] = _ratio(calls[name], ops)
        metrics[f"{name}.self_ms_per_op"] = _ratio(1000.0 * wall[name], ops)
        if name != QUEUE_WAIT:
            metrics[f"{name}.share"] = _ratio(cpu[name], total_cpu)

    d = stats_delta
    lookups = sum(
        _stat(d, "store", k) for k in ("hits", "misses", "extensions", "snapshot_hits")
    )
    searches = _stat(d, "kernel", "searches")
    dispatches = searches + _stat(d, "kernel", "fallbacks")
    found = notes["hom.search"]
    delta_found = notes["hom.delta_search"]
    levels = notes["chase.extend"]
    metrics.update(
        {
            "service.result_hit_ratio": _ratio(_stat(d, "service", "result_hits"), ops),
            "service.coalesced_ratio": _ratio(_stat(d, "service", "coalesced"), ops),
            "store.hit_ratio": _ratio(_stat(d, "store", "hits"), lookups),
            "store.extend_ratio": _ratio(_stat(d, "store", "extensions"), lookups),
            "store.evictions_per_op": _ratio(_stat(d, "store", "evictions"), ops),
            "hom.found_ratio": _ratio(sum(found), len(found)),
            "hom.delta_found_ratio": _ratio(sum(delta_found), len(delta_found)),
            "kernel.fallback_ratio": _ratio(_stat(d, "kernel", "fallbacks"), dispatches),
            "kernel.nodes_per_search": _ratio(_stat(d, "kernel", "kernel_nodes"), searches),
            "chase.levels_per_extend": _ratio(sum(levels), len(levels)),
            "serve.rejections_per_op": _ratio(_stat(d, "serve", "rejections"), ops),
        }
    )
    return metrics


def stats_delta(after: dict, before: Optional[dict]) -> dict:
    """Section-wise difference of two ``stats`` snapshots (numbers only)."""
    before = before or {}
    delta: dict[str, dict] = {}
    for section, counters in after.items():
        if not isinstance(counters, dict):
            continue
        base = before.get(section, {})
        delta[section] = {
            key: value - base.get(key, 0)
            for key, value in counters.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        }
    return delta


def add_deltas(*deltas: dict) -> dict:
    """Sum several :func:`stats_delta` results section by section."""
    total: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for delta in deltas:
        for section, counters in delta.items():
            for key, value in counters.items():
                total[section][key] += value
    return {section: dict(counters) for section, counters in total.items()}
