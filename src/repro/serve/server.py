"""Sharded containment serving: one handler, stdio and TCP transports.

:class:`ContainmentServer` owns **N engine shards** — independent
:class:`repro.api.Engine` instances — and routes every query-keyed op to
the shard owning the query's canonical key
(:class:`~repro.serve.sharding.ShardRouter`), so each shard's
:class:`~repro.containment.store.ChaseStore` and decided-result LRU stay
hot for exactly its slice of the key space.  Admission is layered::

    line in
      │
      ▼
    1. DECODE     newline-delimited JSON (protocol.decode_line);
      │           malformed lines answer {"ok": false, reason:
      │           "bad-request"} and the connection survives.
      ▼
    2. TENANT     resolve the tenant (per line, sticky per connection),
      │           charge its token bucket — an empty bucket answers
      │           reason "quota-exhausted" *immediately*.
      ▼
    3. OVERLOAD   (TCP) a server-wide in-flight cap derived from the
      │           shards' admission limits; beyond it the line answers
      │           reason "queue-full" without touching a worker thread.
      ▼
    4. ROUTE      consistent hash of q1.canonical_key() picks the shard;
      │           check_all splits its pairs shard-by-shard.
      ▼
    5. EXECUTE    the shard Engine's service pipeline (admit → coalesce
                  → govern → decide); its own AdmissionRejected reasons
                  ("queue-full", "draining") surface as structured
                  errors on the line that caused them.

``drain`` flips the server into rejection mode (reason ``"draining"``),
lets every in-flight request finish, then answers ``{"drained": true}``
— after which the transport shuts down cleanly.  Overload and shutdown
are therefore always *answers*, never dropped connections.  ``flq
serve`` routes SIGTERM and SIGINT into the same drain, and then closes
every shard, so a signalled server joins its pool workers before it
exits.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Sequence, TextIO

from ..api import Engine
from ..core.errors import AdmissionRejected, ReproError
from ..governance import ExecutionBudget
from ..obs import OBS_OFF, Observability
from ..store import StoreConfig
from .protocol import (
    OPS,
    PROTOCOL_VERSION,
    REASON_BAD_REQUEST,
    REASON_INTERNAL,
    REASON_UNKNOWN_OP,
    UnknownOperation,
    budget_from_request,
    chase_payload,
    check_payload,
    decode_line,
    error_response,
    parse_rule,
)
from .sharding import ShardRouter
from .tenancy import TenantRegistry

__all__ = ["ContainmentServer", "ServerStats", "ConnectionState", "DEFAULT_TENANT"]

#: Tenant charged when a connection never names one.
DEFAULT_TENANT = "default"

#: Ops that do real engine work and are therefore metered per tenant.
_WORK_OPS = frozenset({"check", "explain", "check_all", "chase"})

#: Default level bound of the ``chase`` op when the request names none.
_CHASE_DEFAULT_BOUND = 12


class _StopSignal(Exception):
    """Raised by a stop-signal handler to end a blocked stdio read."""


@dataclass
class ServerStats:
    """Front-door counters of one :class:`ContainmentServer`."""

    #: TCP connections accepted over the server's lifetime.
    connections: int = 0
    #: Request lines decoded (including ones later rejected).
    requests: int = 0
    #: Lines answered with a structured rejection, by reason.
    rejections_by_reason: dict = field(default_factory=dict)

    @property
    def rejections(self) -> int:
        """Total rejected lines across every reason."""
        return sum(self.rejections_by_reason.values())

    def as_dict(self) -> dict:
        """JSON-friendly snapshot for the ``stats`` op."""
        return {
            "connections": self.connections,
            "requests": self.requests,
            "rejections": self.rejections,
            "rejections_by_reason": dict(self.rejections_by_reason),
        }


@dataclass
class ConnectionState:
    """Per-connection mutable state: the sticky tenant id."""

    tenant: Optional[str] = None


class ContainmentServer:
    """N engine shards behind one newline-delimited-JSON front door.

    Parameters
    ----------
    shards:
        Engine shard count (>= 1).  Requests route by consistent hash of
        the query's canonical key; ``shards=1`` reproduces the old
        single-engine ``flq serve`` semantics exactly.
    tenants:
        The :class:`~repro.serve.tenancy.TenantRegistry` holding quota
        policies; ``None`` serves everything unmetered under one
        ``"default"`` tenant.
    budget:
        Service-wide :class:`~repro.governance.ExecutionBudget` envelope
        applied inside every shard; tenant and per-request budgets merge
        into it elementwise-min.
    store_config:
        One :class:`~repro.store.StoreConfig` shared by every shard.  A
        config with a ``path`` points all shards at **one** snapshot
        database: each shard hydrates only the keys it is routed (their
        in-memory LRUs stay disjoint), and a killed, restarted or
        *resharded* fleet reattaches to the same file and answers repeat
        requests from the persisted store without re-chasing.
    max_active, max_pending, max_workers, kernel, obs:
        Per-shard :class:`~repro.api.Engine` configuration (each shard
        gets its own store and admission queue of this size).
    """

    def __init__(
        self,
        shards: int = 1,
        *,
        tenants: Optional[TenantRegistry] = None,
        budget: Optional[ExecutionBudget] = None,
        max_active: int = 8,
        max_pending: int = 64,
        max_workers: Optional[int] = None,
        store_config: Optional[StoreConfig] = None,
        kernel: str = "auto",
        obs: Optional[Observability] = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.obs = obs if obs is not None else OBS_OFF
        self.router = ShardRouter(shards)
        self.tenants = tenants if tenants is not None else TenantRegistry()
        self.store_config = store_config if store_config is not None else StoreConfig()
        self.engines = [
            Engine(
                budget=budget,
                max_active=max_active,
                max_pending=max_pending,
                max_workers=max_workers,
                store_config=self.store_config,
                kernel=kernel,
                obs=obs,
            )
            for _ in range(shards)
        ]
        self.stats = ServerStats()
        #: Server-wide in-flight cap for the TCP transport: every shard
        #: can have its full admission queue busy, plus one slot of slack
        #: so rejection comes from the front door, not thread starvation.
        self.inflight_cap = shards * (max_active + max_pending)
        #: Worker threads of the TCP transport: one per execution slot.
        #: Admitted lines beyond them wait as queued executor work.
        self.worker_threads = shards * max_active
        self._draining = False
        self._drained = threading.Event()
        self._lock = threading.Lock()
        self._closed = False

    # -- state ---------------------------------------------------------------

    @property
    def shards(self) -> int:
        """Number of engine shards."""
        return len(self.engines)

    @property
    def draining(self) -> bool:
        """True once a ``drain`` began; work ops are rejected from then on."""
        return self._draining

    # -- the synchronous request path ----------------------------------------

    def handle_line(self, line: str, conn: ConnectionState) -> Optional[dict]:
        """Serve one raw request line; returns the response object.

        Blank lines return ``None`` (no response is written).  Every
        other outcome — including malformed JSON, unknown ops, quota and
        overload rejections, and internal errors — returns a response
        dict, so a connected client always hears back.
        """
        line = line.strip()
        if not line:
            return None
        request_id = None
        try:
            request = decode_line(line)
            request_id = request.get("id")
            self._count_request()
            response = self.handle_request(request, conn)
        except Exception as exc:  # noqa: BLE001 - per-line error reporting
            response = self._response_for_exception(exc)
        if request_id is not None:
            response["id"] = request_id
        return response

    def handle_request(self, request: dict, conn: ConnectionState) -> dict:
        """Serve one decoded request object (admission + execution)."""
        op, tenant = self.admit(request, conn)
        return self.execute(request, op, tenant)

    def admit(self, request: dict, conn: ConnectionState) -> tuple[str, str]:
        """Stations 2–3 of the pipeline: op check, drain gate, quota.

        Cheap by construction (a dict lookup, a flag, a token-bucket
        subtraction) so the TCP transport can run it on the event loop —
        an over-quota or draining-time line is answered without ever
        occupying a worker thread.  Returns ``(op, tenant)``; raises
        :class:`~repro.core.errors.AdmissionRejected` or ``ReproError``.
        """
        op = request.get("op", "check")
        if op not in OPS:
            raise UnknownOperation(
                f"unknown op {op!r} (expected one of {', '.join(OPS)})"
            )
        tenant = request.get("tenant")
        if tenant is not None:
            tenant = str(tenant)
            conn.tenant = tenant
        else:
            tenant = conn.tenant or DEFAULT_TENANT
        if op in _WORK_OPS:
            if self._draining:
                raise AdmissionRejected(
                    f"{op} rejected: server is draining", reason="draining"
                )
            tokens = 1
            if op == "check_all":
                pairs = request.get("pairs")
                tokens = max(1, len(pairs)) if isinstance(pairs, list) else 1
            self.tenants.admit(tenant, tokens=tokens)
        return op, tenant

    def execute(self, request: dict, op: str, tenant: str) -> dict:
        """Stations 4–5: route to a shard and run the op's engine work."""
        if op == "ping":
            return {"ok": True, "op": "ping", "protocol": PROTOCOL_VERSION}
        if op == "stats":
            return {"ok": True, "op": "stats", "stats": self.stats_dict()}
        if op == "shard_stats":
            return {"ok": True, "op": "shard_stats", "shards": self.shard_stats()}
        if op == "drain":
            return self._execute_drain()
        budget = self._effective_budget(request, tenant)
        if op in ("check", "explain"):
            return self._execute_check(request, op, tenant, budget)
        if op == "check_all":
            return self._execute_check_all(request, tenant, budget)
        assert op == "chase"
        return self._execute_chase(request, tenant, budget)

    # -- op implementations --------------------------------------------------

    def _effective_budget(
        self, request: dict, tenant: str
    ) -> Optional[ExecutionBudget]:
        """Tenant envelope ∧ request budget (the shard engine then merges
        its own service envelope on top — elementwise-min all the way)."""
        request_budget = budget_from_request(request)
        tenant_budget = self.tenants.budget_for(tenant)
        if tenant_budget is None:
            return request_budget
        return tenant_budget.merged(request_budget)

    def _execute_check(
        self,
        request: dict,
        op: str,
        tenant: str,
        budget: Optional[ExecutionBudget],
    ) -> dict:
        if "q1" not in request or "q2" not in request:
            raise ReproError(f"{op} request needs 'q1' and 'q2' rule strings")
        q1 = parse_rule(str(request["q1"]), "q1")
        q2 = parse_rule(str(request["q2"]), "q2")
        explain = op == "explain" or bool(request.get("explain", False))
        shard = self.router.route(q1)
        result = self.engines[shard].check(
            q1,
            q2,
            level_bound=request.get("level_bound"),
            anytime=request.get("anytime"),
            explain=explain,
            budget=budget,
        )
        response = {"ok": True, "op": op, "shard": shard, "tenant": tenant}
        response.update(
            check_payload(result, q1, q2, include_provenance=explain)
        )
        return response

    def _execute_check_all(
        self, request: dict, tenant: str, budget: Optional[ExecutionBudget]
    ) -> dict:
        pairs_raw = request.get("pairs")
        if not isinstance(pairs_raw, list) or not pairs_raw:
            raise ReproError(
                "check_all request needs a non-empty 'pairs' list of "
                "{'q1': ..., 'q2': ...} objects"
            )
        pairs = []
        for i, item in enumerate(pairs_raw):
            if not isinstance(item, dict) or "q1" not in item or "q2" not in item:
                raise ReproError(f"pairs[{i}] needs 'q1' and 'q2' rule strings")
            pairs.append(
                (
                    parse_rule(str(item["q1"]), f"q1_{i}"),
                    parse_rule(str(item["q2"]), f"q2_{i}"),
                )
            )
        level_bound = request.get("level_bound")
        anytime = request.get("anytime")
        # Split the batch shard-by-shard (q1's key decides, as for check)
        # so every sub-batch lands on the store that already knows its
        # chase groups; results reassemble in request order.
        by_shard: dict[int, list[int]] = {}
        shard_of: list[int] = []
        for i, (q1, _) in enumerate(pairs):
            shard = self.router.route(q1)
            shard_of.append(shard)
            by_shard.setdefault(shard, []).append(i)
        results: list[Optional[dict]] = [None] * len(pairs)
        for shard, indexes in by_shard.items():
            decided = self.engines[shard].check_all(
                [pairs[i] for i in indexes],
                level_bound=level_bound,
                anytime=anytime,
                budget=budget,
            )
            for i, result in zip(indexes, decided):
                q1, q2 = pairs[i]
                payload = check_payload(result, q1, q2)
                payload["shard"] = shard
                results[i] = payload
        return {
            "ok": True,
            "op": "check_all",
            "tenant": tenant,
            "pairs": len(pairs),
            "results": results,
        }

    def _execute_chase(
        self, request: dict, tenant: str, budget: Optional[ExecutionBudget]
    ) -> dict:
        if "query" not in request:
            raise ReproError("chase request needs a 'query' rule string")
        query = parse_rule(str(request["query"]), "query")
        level_bound = int(request.get("level_bound", _CHASE_DEFAULT_BOUND))
        shard = self.router.route(query)
        # The chase op rides the shard's store directly; budgets govern
        # check/explain/check_all, while a chase prefix request is always
        # bounded by its level_bound.
        chase_result = self.engines[shard].chase(query, level_bound)
        response = {"ok": True, "op": "chase", "shard": shard, "tenant": tenant}
        response.update(chase_payload(chase_result, query))
        return response

    def _execute_drain(self) -> dict:
        """Graceful drain: reject new admits, finish in-flight, report.

        Idempotent: the first ``drain`` does the work, a concurrent
        second one waits for it, and both answer ``{"drained": true}``
        only once every in-flight request has completed.
        """
        with self._lock:
            already = self._draining
            self._draining = True
        if not already:
            for engine in self.engines:
                engine.drain()
            self._drained.set()
        else:
            self._drained.wait()
        return {
            "ok": True,
            "op": "drain",
            "drained": True,
            "shards": self.shards,
        }

    # -- introspection -------------------------------------------------------

    def stats_dict(self) -> dict:
        """Aggregated counters: every shard summed, plus the front door.

        The per-layer sections (``service``/``queue``/``pool``/``store``/
        ``kernel``) keep the exact keys a single-engine ``stats`` op
        reported, with values summed across shards; ``serve`` and
        ``tenants`` are new in protocol v2.
        """
        aggregated: dict[str, dict] = {}
        for engine in self.engines:
            for section, counters in engine.stats().items():
                bucket = aggregated.setdefault(section, {})
                for key, value in counters.items():
                    if isinstance(value, (int, float)):
                        bucket[key] = bucket.get(key, 0) + value
        aggregated["serve"] = dict(
            self.stats.as_dict(),
            shards=self.shards,
            draining=self._draining,
            routed=list(self.router.routed),
        )
        aggregated["tenants"] = self.tenants.stats()
        return aggregated

    def shard_stats(self) -> list[dict]:
        """Per-shard detail: routing count, hit gauges, full layer stats."""
        rows = []
        for shard, engine in enumerate(self.engines):
            stats = engine.stats()
            store = stats.get("store", {})
            lookups = (
                store.get("hits", 0)
                + store.get("misses", 0)
                + store.get("extensions", 0)
            )
            reuses = store.get("hits", 0) + store.get("extensions", 0)
            service = stats.get("service", {})
            requests = (
                service.get("checks", 0)
                + service.get("result_hits", 0)
                + service.get("coalesced", 0)
            )
            warm_hits = service.get("result_hits", 0) + service.get(
                "coalesced", 0
            )
            rows.append(
                {
                    "shard": shard,
                    "routed": self.router.routed[shard],
                    "store_hit_rate": (reuses / lookups) if lookups else None,
                    "result_hit_rate": (warm_hits / requests)
                    if requests
                    else None,
                    "stats": stats,
                }
            )
        return rows

    # -- lifecycle -----------------------------------------------------------

    def close(self, timeout: Optional[float] = None) -> None:
        """Close every shard engine (drains first if not already drained)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._draining = True
        for engine in self.engines:
            engine.close(timeout=timeout)

    def __enter__(self) -> "ContainmentServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- stdio transport -----------------------------------------------------

    def serve_stdio(
        self,
        stdin: Optional[TextIO] = None,
        stdout: Optional[TextIO] = None,
        *,
        stop_signals: Sequence[int] = (),
    ) -> int:
        """The synchronous newline-JSON loop (the classic ``flq serve``).

        One request per *stdin* line, one response per *stdout* line;
        EOF — or a successful ``drain`` op — ends the session with
        status 0.  A single implicit connection carries the sticky
        tenant id.

        Each of *stop_signals* (the CLI passes SIGTERM and SIGINT; the
        handlers can only be installed from the main thread) ends the
        session like a ``drain`` op: the line being executed is still
        answered, no further line is read, and every shard drains.
        """
        stdin = stdin if stdin is not None else sys.stdin
        stdout = stdout if stdout is not None else sys.stdout
        conn = ConnectionState()
        stopping = reading = False

        def on_signal(signum, frame) -> None:
            nonlocal stopping
            stopping = True
            if reading:
                # Blocked waiting for input: nothing is in flight.
                raise _StopSignal

        previous = {sig: signal.signal(sig, on_signal) for sig in stop_signals}
        try:
            while not stopping:
                reading = True
                try:
                    line = stdin.readline()
                finally:
                    reading = False
                if not line:
                    break
                response = self.handle_line(line, conn)
                if response is None:
                    continue
                stdout.write(json.dumps(response) + "\n")
                stdout.flush()
                if response.get("op") == "drain" and response.get("ok"):
                    break
        except _StopSignal:
            pass
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)
        if stopping:
            self._execute_drain()
        return 0

    # -- TCP transport -------------------------------------------------------

    async def serve_tcp(
        self,
        host: str,
        port: int,
        *,
        ready=None,
        stop_signals: Sequence[int] = (),
    ) -> None:
        """Serve newline-JSON over TCP until a ``drain`` op (or cancel).

        Listens on ``host:port`` (port ``0`` = ephemeral), then calls
        *ready* with the bound ``(host, port)`` — the CLI prints the
        ready line from it so clients can discover the port.  Each
        connection may pipeline requests; lines execute concurrently on
        worker threads and responses interleave, correlated by ``id``.
        A successful ``drain`` finishes in-flight lines, closes the
        listener and every connection, and returns.  Each of
        *stop_signals* (the CLI passes SIGTERM and SIGINT; the loop must
        run in the main thread) triggers the same drain.
        """
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        signal_drain: Optional[asyncio.Task] = None

        async def drain_and_stop() -> None:
            await loop.run_in_executor(None, self._execute_drain)
            stop.set()

        def on_signal() -> None:
            nonlocal signal_drain
            if signal_drain is None:
                signal_drain = asyncio.ensure_future(drain_and_stop())

        inflight = 0
        writers: set[asyncio.StreamWriter] = set()
        conn_tasks: set[asyncio.Task] = set()
        # A dedicated executor with one thread per execution slot.  The
        # front door's inflight cap still decides queue-full; lines between
        # the two limits wait in the executor's queue, not as threads
        # parked in a shard's AdmissionQueue, so a release never has more
        # than a few threads to hand the GIL to.
        executor = ThreadPoolExecutor(
            max_workers=self.worker_threads,
            thread_name_prefix="flq-serve",
        )

        def _work(request: dict, op: str, tenant: str) -> dict:
            try:
                return self.execute(request, op, tenant)
            except Exception as exc:  # noqa: BLE001 - mapped per line
                return self._response_for_exception(exc)

        async def serve_line(line: str, conn: ConnectionState) -> Optional[dict]:
            nonlocal inflight
            request_id = None
            try:
                request = decode_line(line)
                request_id = request.get("id")
                self._count_request()
                op, tenant = self.admit(request, conn)
                if op in _WORK_OPS:
                    # Front-door overload gate: reject beyond the cap
                    # instead of queueing lines into the thread pool.
                    if inflight >= self.inflight_cap:
                        raise AdmissionRejected(
                            f"{op} rejected: server over capacity "
                            f"(inflight={inflight}/{self.inflight_cap})",
                            reason="queue-full",
                        )
                    inflight += 1
                    self._gauge("serve.inflight", inflight)
                    try:
                        response = await loop.run_in_executor(
                            executor, _work, request, op, tenant
                        )
                    finally:
                        inflight -= 1
                        self._gauge("serve.inflight", inflight)
                elif op == "drain":
                    # Drain blocks until in-flight work finishes; run it
                    # off-loop (and outside the cap) so rejections keep
                    # flowing to other clients while it waits.
                    response = await loop.run_in_executor(
                        None, _work, request, op, tenant
                    )
                else:
                    response = _work(request, op, tenant)
            except Exception as exc:  # noqa: BLE001 - mapped per line
                response = self._response_for_exception(exc)
            if request_id is not None:
                response["id"] = request_id
            return response

        async def handle_connection(reader, writer):
            self.stats.connections += 1
            self._counter("serve.connections")
            writers.add(writer)
            conn = ConnectionState()
            write_lock = asyncio.Lock()
            line_tasks: set[asyncio.Task] = set()

            async def pump(raw: bytes) -> None:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    return
                response = await serve_line(line, conn)
                if response is None:
                    return
                data = (json.dumps(response) + "\n").encode("utf-8")
                async with write_lock:
                    if writer.is_closing():
                        return
                    writer.write(data)
                    try:
                        await writer.drain()
                    except ConnectionError:
                        pass
                if response.get("op") == "drain" and response.get("ok"):
                    stop.set()

            stop_waiter = asyncio.ensure_future(stop.wait())
            try:
                while not stop.is_set():
                    read = asyncio.ensure_future(reader.readline())
                    await asyncio.wait(
                        {read, stop_waiter},
                        return_when=asyncio.FIRST_COMPLETED,
                    )
                    if not read.done():
                        # Stopped mid-read: no more requests from here.
                        read.cancel()
                        await asyncio.gather(read, return_exceptions=True)
                        break
                    raw = read.result()
                    if not raw:
                        break
                    task = asyncio.ensure_future(pump(raw))
                    line_tasks.add(task)
                    task.add_done_callback(line_tasks.discard)
            except ConnectionError:
                pass
            finally:
                stop_waiter.cancel()
                # Let every pump flush its response (in-flight work keeps
                # its answer through a drain) before the writer closes.
                if line_tasks:
                    await asyncio.gather(*line_tasks, return_exceptions=True)
                writers.discard(writer)
                writer.close()

        def on_connection(reader, writer):
            task = asyncio.ensure_future(handle_connection(reader, writer))
            conn_tasks.add(task)
            task.add_done_callback(conn_tasks.discard)

        server = await asyncio.start_server(on_connection, host, port)
        for sig in stop_signals:
            loop.add_signal_handler(sig, on_signal)
        bound = server.sockets[0].getsockname()
        if ready is not None:
            ready(bound[0], bound[1])
        try:
            await stop.wait()
        finally:
            for sig in stop_signals:
                loop.remove_signal_handler(sig)
            # Stop (set on drain, or here on cancellation) tells every
            # connection handler to flush its in-flight responses and
            # close itself; only then do we tear the rest down.
            stop.set()
            server.close()
            await server.wait_closed()
            if conn_tasks:
                await asyncio.gather(*conn_tasks, return_exceptions=True)
            if signal_drain is not None:
                await asyncio.gather(signal_drain, return_exceptions=True)
            for writer in list(writers):
                writer.close()
            executor.shutdown(wait=True)

    # -- helpers -------------------------------------------------------------

    def _response_for_exception(self, exc: Exception) -> dict:
        """Map an exception to the structured error envelope (and count)."""
        if isinstance(exc, AdmissionRejected):
            return self._rejection(str(exc), exc.reason)
        if isinstance(exc, UnknownOperation):
            return error_response(str(exc), reason=REASON_UNKNOWN_OP)
        if isinstance(exc, ReproError):
            return error_response(str(exc), reason=REASON_BAD_REQUEST)
        if isinstance(exc, (ValueError, TypeError, KeyError)):
            return error_response(str(exc), reason=REASON_BAD_REQUEST)
        return error_response(
            f"{type(exc).__name__}: {exc}", reason=REASON_INTERNAL
        )

    def _rejection(self, message: str, reason: str) -> dict:
        with self._lock:
            by_reason = self.stats.rejections_by_reason
            by_reason[reason] = by_reason.get(reason, 0) + 1
        self._counter("serve.rejections", reason=reason)
        return error_response(message, reason=reason)

    def _count_request(self) -> None:
        with self._lock:
            self.stats.requests += 1
        self._counter("serve.requests")

    def _counter(self, name: str, **labels: str) -> None:
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.counter(name, **labels).inc()

    def _gauge(self, name: str, value: int) -> None:
        metrics = self.obs.metrics
        if metrics is not None:
            metrics.gauge(name).set(value)

    def __repr__(self) -> str:
        state = (
            "closed"
            if self._closed
            else ("draining" if self._draining else "open")
        )
        return f"ContainmentServer({state}, shards={self.shards})"
