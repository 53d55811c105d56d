"""ContainmentServer: the request path, sharding, quotas, TCP, drain."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro.serve import (
    ConnectionState,
    ContainmentServer,
    TenantPolicy,
    TenantRegistry,
)
from repro.core.errors import ReproError
from repro.serve.protocol import PARSE_CACHE_SIZE, parse_rule

Q1_TEXT = "q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_]."
Q2_TEXT = "qq(A,B) :- T1[A*=>T2], T2[B*=>_]."

#: Generous upper bound on any single await in the TCP tests; the point
#: of the protocol is that every outcome is an *answer*, so a test that
#: trips this timeout has found a hang.
WAIT = 30.0


def serve(line: str, server: ContainmentServer, conn=None) -> dict:
    return server.handle_line(line, conn if conn is not None else ConnectionState())


class TestHandleLine:
    def test_ping_reports_protocol_version(self):
        with ContainmentServer() as server:
            response = serve('{"op": "ping"}', server)
        assert response == {"ok": True, "op": "ping", "protocol": 2}

    def test_blank_line_gets_no_response(self):
        with ContainmentServer() as server:
            assert serve("   \n", server) is None

    def test_check_reports_shard_and_tenant(self):
        with ContainmentServer(shards=3) as server:
            response = serve(
                json.dumps({"id": 9, "q1": Q1_TEXT, "q2": Q2_TEXT}), server
            )
        assert response["ok"] is True
        assert response["id"] == 9
        assert response["decision"] == "TRUE"
        assert response["tenant"] == "default"
        expected = server.router.shard_of_key(
            parse_rule(Q1_TEXT, "q1").canonical_key()
        )
        assert response["shard"] == expected

    def test_bad_json_and_unknown_op_reasons(self):
        with ContainmentServer() as server:
            bad = serve("{nope", server)
            unknown = serve('{"op": "frobnicate"}', server)
        assert bad["ok"] is False and bad["reason"] == "bad-request"
        assert unknown["ok"] is False and unknown["reason"] == "unknown-op"
        assert "frobnicate" in unknown["error"]

    def test_tenant_is_sticky_per_connection(self):
        with ContainmentServer() as server:
            conn = ConnectionState()
            first = serve(
                json.dumps({"q1": Q1_TEXT, "q2": Q2_TEXT, "tenant": "alice"}),
                server,
                conn,
            )
            second = serve(
                json.dumps({"q1": Q1_TEXT, "q2": Q2_TEXT}), server, conn
            )
        assert first["tenant"] == "alice"
        assert second["tenant"] == "alice"

    def test_check_all_routes_pair_by_pair(self):
        with ContainmentServer(shards=2) as server:
            response = serve(
                json.dumps(
                    {
                        "op": "check_all",
                        "pairs": [
                            {"q1": Q1_TEXT, "q2": Q2_TEXT},
                            {"q1": Q2_TEXT, "q2": Q1_TEXT},
                        ],
                    }
                ),
                server,
            )
        assert response["ok"] is True and response["pairs"] == 2
        decisions = [r["decision"] for r in response["results"]]
        assert decisions == ["TRUE", "FALSE"]
        for r in response["results"]:
            assert r["shard"] in (0, 1)

    def test_stats_has_serve_and_tenant_sections(self):
        with ContainmentServer(shards=2) as server:
            serve(json.dumps({"q1": Q1_TEXT, "q2": Q2_TEXT}), server)
            response = serve('{"op": "stats"}', server)
        stats = response["stats"]
        assert stats["serve"]["shards"] == 2
        assert stats["serve"]["requests"] == 2
        assert stats["serve"]["draining"] is False
        assert sum(stats["serve"]["routed"]) == 1
        assert stats["service"]["checks"] == 1
        assert "default" in stats["tenants"]

    def test_shard_stats_reports_hit_gauges(self):
        with ContainmentServer(shards=2) as server:
            line = json.dumps({"q1": Q1_TEXT, "q2": Q2_TEXT})
            serve(line, server)
            serve(line, server)  # second one is a decided-result hit
            response = serve('{"op": "shard_stats"}', server)
        rows = response["shards"]
        assert [row["shard"] for row in rows] == [0, 1]
        hot = [row for row in rows if row["routed"] == 2]
        assert len(hot) == 1
        assert hot[0]["result_hit_rate"] == pytest.approx(0.5)
        assert hot[0]["store_hit_rate"] is not None

    def test_quota_exhaustion_is_answered_not_hung(self):
        registry = TenantRegistry({"alice": TenantPolicy(rate=0.001, burst=1.0)})
        with ContainmentServer(tenants=registry) as server:
            conn = ConnectionState()
            first = serve(
                json.dumps({"q1": Q1_TEXT, "q2": Q2_TEXT, "tenant": "alice"}),
                server,
                conn,
            )
            second = serve(
                json.dumps({"id": 2, "q1": Q1_TEXT, "q2": Q2_TEXT}), server, conn
            )
        assert first["ok"] is True
        assert second == {
            "ok": False,
            "error": second["error"],
            "reason": "quota-exhausted",
            "id": 2,
        }
        assert server.stats.rejections_by_reason == {"quota-exhausted": 1}

    def test_ping_and_stats_ignore_quotas(self):
        registry = TenantRegistry(
            default_policy=TenantPolicy(rate=0.001, burst=1.0)
        )
        with ContainmentServer(tenants=registry) as server:
            conn = ConnectionState()
            serve(json.dumps({"q1": Q1_TEXT, "q2": Q2_TEXT}), server, conn)
            for _ in range(3):
                assert serve('{"op": "ping"}', server, conn)["ok"] is True
                assert serve('{"op": "stats"}', server, conn)["ok"] is True

    def test_tenant_budget_envelope_caps_requests(self):
        registry = TenantRegistry(
            {"capped": TenantPolicy(budget=TenantPolicy.from_dict(
                {"deadline": 0.0}
            ).budget)}
        )
        with ContainmentServer(tenants=registry) as server:
            response = serve(
                json.dumps(
                    {"q1": Q1_TEXT, "q2": Q2_TEXT, "tenant": "capped"}
                ),
                server,
            )
        # A zero-second tenant deadline turns every answer into a clean
        # UNKNOWN — budget exhaustion is a verdict, not an error.
        assert response["ok"] is True
        assert response["decision"] == "UNKNOWN"
        assert response["contained"] is None

    def test_routing_is_deterministic_across_server_instances(self):
        line = json.dumps({"q1": Q1_TEXT, "q2": Q2_TEXT})
        shards = []
        for _ in range(2):
            with ContainmentServer(shards=4) as server:
                shards.append(serve(line, server)["shard"])
        assert shards[0] == shards[1]


class TestParseOnce:
    def test_repeated_text_returns_the_parsed_query(self):
        first = parse_rule(Q1_TEXT, "q1")
        assert parse_rule(Q1_TEXT, "q1") is first
        # The default name is part of the key: it names `?-` queries.
        asked = "?- X:person."
        assert parse_rule(asked, "q1").name == "q1"
        assert parse_rule(asked, "q2").name == "q2"

    def test_cache_is_bounded(self):
        assert PARSE_CACHE_SIZE <= 256
        for i in range(PARSE_CACHE_SIZE + 10):
            parse_rule(f"q(X) :- X:c{i}.", "q1")
        info = parse_rule.cache_info()
        assert info.maxsize == PARSE_CACHE_SIZE
        assert info.currsize <= PARSE_CACHE_SIZE

    def test_failed_parse_is_not_cached(self):
        parse_rule.cache_clear()
        for _ in range(2):
            with pytest.raises(ReproError):
                parse_rule("no rule here", "q1")
        assert parse_rule.cache_info().currsize == 0

    def test_executor_has_one_thread_per_execution_slot(self):
        server = ContainmentServer(shards=3, max_active=2, max_pending=5)
        try:
            assert server.worker_threads == 6
            assert server.inflight_cap == 21
        finally:
            server.close()


class TestDrain:
    def test_drain_is_idempotent_and_ends_stdio(self):
        import io

        requests = "\n".join(
            ['{"id": 1, "op": "drain"}', '{"id": 2, "op": "ping"}']
        )
        out = io.StringIO()
        with ContainmentServer(shards=2) as server:
            rc = server.serve_stdio(io.StringIO(requests + "\n"), out)
        assert rc == 0
        lines = [json.loads(l) for l in out.getvalue().splitlines()]
        assert lines == [
            {"id": 1, "ok": True, "op": "drain", "drained": True, "shards": 2}
        ]

    def test_work_after_drain_is_rejected_with_reason(self):
        with ContainmentServer() as server:
            conn = ConnectionState()
            assert serve('{"op": "drain"}', server, conn)["drained"] is True
            rejected = serve(
                json.dumps({"id": 5, "q1": Q1_TEXT, "q2": Q2_TEXT}), server, conn
            )
            # Introspection stays available on a drained server.
            stats = serve('{"op": "stats"}', server, conn)
        assert rejected["ok"] is False and rejected["reason"] == "draining"
        assert stats["ok"] is True
        assert stats["stats"]["serve"]["draining"] is True


def tcp_session(server: ContainmentServer, session):
    """Run *session(ready)* against a live ``serve_tcp`` on an ephemeral
    port, where ``ready`` resolves to ``(reader, writer)`` of a fresh
    client connection.  Everything is wrapped in :data:`WAIT` timeouts —
    a hang is a failure, never a stuck test run.
    """

    async def main():
        bound = asyncio.get_running_loop().create_future()

        async def connect():
            host, port = await asyncio.wait_for(bound, WAIT)
            return await asyncio.wait_for(
                asyncio.open_connection(host, port), WAIT
            )

        serve_task = asyncio.ensure_future(
            server.serve_tcp(
                "127.0.0.1", 0, ready=lambda h, p: bound.set_result((h, p))
            )
        )
        try:
            await asyncio.wait_for(session(connect), WAIT * 2)
        finally:
            if not serve_task.done():
                serve_task.cancel()
            await asyncio.gather(serve_task, return_exceptions=True)

    asyncio.run(main())


async def rpc(reader, writer, obj) -> dict:
    writer.write((json.dumps(obj) + "\n").encode())
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), WAIT)
    assert line, "connection closed instead of answering"
    return json.loads(line)


class TestTcp:
    def test_round_trip_and_pipelining(self):
        server = ContainmentServer(shards=2)

        async def session(connect):
            reader, writer = await connect()
            assert (await rpc(reader, writer, {"op": "ping"}))["protocol"] == 2
            # Pipelined requests: fire both, then collect by id.
            for i, (q1, q2) in enumerate([(Q1_TEXT, Q2_TEXT), (Q2_TEXT, Q1_TEXT)]):
                writer.write(
                    (json.dumps({"id": i, "q1": q1, "q2": q2}) + "\n").encode()
                )
            await writer.drain()
            got = {}
            for _ in range(2):
                line = await asyncio.wait_for(reader.readline(), WAIT)
                response = json.loads(line)
                got[response["id"]] = response
            assert got[0]["decision"] == "TRUE"
            assert got[1]["decision"] == "FALSE"
            stats = await rpc(reader, writer, {"op": "stats"})
            assert stats["stats"]["serve"]["connections"] == 1
            writer.close()

        with server:
            tcp_session(server, session)

    def test_connection_survives_errors_and_counts_rejections(self):
        registry = TenantRegistry(
            {"alice": TenantPolicy(rate=0.001, burst=1.0)}
        )
        server = ContainmentServer(tenants=registry)

        async def session(connect):
            reader, writer = await connect()
            bad = await rpc(reader, writer, {"op": "wat", "id": 1})
            assert bad["reason"] == "unknown-op"
            ok = await rpc(
                reader,
                writer,
                {"id": 2, "q1": Q1_TEXT, "q2": Q2_TEXT, "tenant": "alice"},
            )
            assert ok["ok"] is True
            rejected = await rpc(
                reader, writer, {"id": 3, "q1": Q1_TEXT, "q2": Q2_TEXT}
            )
            assert rejected["reason"] == "quota-exhausted"
            stats = await rpc(reader, writer, {"op": "stats", "id": 4})
            # Only admission backpressure counts as a rejection; a typo'd
            # op is a client error, not the server pushing back.
            by_reason = stats["stats"]["serve"]["rejections_by_reason"]
            assert by_reason == {"quota-exhausted": 1}
            writer.close()

        with server:
            tcp_session(server, session)

    def test_drain_finishes_inflight_while_rejecting_new_admits(self):
        server = ContainmentServer(shards=2)
        shard = server.router.shard_of_key(
            parse_rule(Q1_TEXT, "q1").canonical_key()
        )
        checker = server.engines[shard].checker
        started = threading.Event()
        gate = threading.Event()
        original = checker.check

        def gated_check(*args, **kwargs):
            started.set()
            assert gate.wait(WAIT), "test gate never released"
            return original(*args, **kwargs)

        checker.check = gated_check

        async def session(connect):
            loop = asyncio.get_running_loop()
            r1, w1 = await connect()
            r2, w2 = await connect()
            # 1. A check goes in-flight (its worker blocks on the gate).
            w1.write(
                (json.dumps({"id": 1, "q1": Q1_TEXT, "q2": Q2_TEXT}) + "\n").encode()
            )
            await w1.drain()
            assert await loop.run_in_executor(None, started.wait, WAIT)
            # 2. Drain starts on another connection; it must not answer
            #    while the check is still running.
            w2.write(b'{"id": 10, "op": "drain"}\n')
            await w2.drain()
            while not server.draining:
                await asyncio.sleep(0.01)
            # 3. New work is rejected immediately — the draining server
            #    still answers every line.
            rejected = await rpc(
                r2, w2, {"id": 11, "q1": Q2_TEXT, "q2": Q1_TEXT}
            )
            assert rejected["reason"] == "draining"
            assert rejected["id"] == 11
            # 4. Release the gate: the in-flight check completes fine,
            #    then — and only then — the drain answers.
            gate.set()
            inflight = json.loads(await asyncio.wait_for(r1.readline(), WAIT))
            assert inflight["id"] == 1 and inflight["ok"] is True
            assert inflight["decision"] == "TRUE"
            drained = json.loads(await asyncio.wait_for(r2.readline(), WAIT))
            assert drained["id"] == 10
            assert drained["drained"] is True
            w1.close()
            w2.close()

        with server:
            tcp_session(server, session)

    def test_front_door_overload_rejects_queue_full(self):
        # A tiny capacity server: one active slot, no pending room.
        server = ContainmentServer(max_active=1, max_pending=0)
        checker = server.engines[0].checker
        started = threading.Event()
        gate = threading.Event()
        original = checker.check

        def gated_check(*args, **kwargs):
            started.set()
            assert gate.wait(WAIT), "test gate never released"
            return original(*args, **kwargs)

        checker.check = gated_check
        assert server.inflight_cap == 1

        async def session(connect):
            loop = asyncio.get_running_loop()
            reader, writer = await connect()
            writer.write(
                (json.dumps({"id": 1, "q1": Q1_TEXT, "q2": Q2_TEXT}) + "\n").encode()
            )
            await writer.drain()
            assert await loop.run_in_executor(None, started.wait, WAIT)
            # The cap is full: the next work line answers queue-full
            # *now*, while the first request is still executing.
            rejected = await rpc(
                reader, writer, {"id": 2, "q1": Q2_TEXT, "q2": Q1_TEXT}
            )
            assert rejected["reason"] == "queue-full"
            gate.set()
            first = json.loads(await asyncio.wait_for(reader.readline(), WAIT))
            assert first["id"] == 1 and first["ok"] is True
            writer.close()

        with server:
            tcp_session(server, session)
