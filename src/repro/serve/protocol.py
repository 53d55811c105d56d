"""The ``flq serve`` wire protocol: framing, envelopes, error reasons.

One protocol, two transports.  Both the legacy stdio mode and the
asyncio TCP mode (:mod:`repro.serve.server`) speak **newline-delimited
JSON**: one request object per line in, one response object per line
out.  Responses echo the request's ``id`` (when present) so clients may
pipeline; on the TCP transport responses can interleave across
concurrently executing requests and ``id`` is the correlation key.

This module owns everything both transports share — request field
parsing, the response shapes, and the structured error/rejection
vocabulary — so the protocol cannot drift between them.  The normative
human-readable reference (with doc-tested examples) is
``docs/protocol.md``.

Error envelope::

    {"id": ..., "ok": false, "error": "<message>", "reason": "<code>"}

``reason`` is machine-readable: ``bad-request`` (malformed JSON or
fields), ``unknown-op``, ``queue-full`` / ``draining`` (the service
layer's :class:`~repro.core.errors.AdmissionRejected` reasons passed
through), ``quota-exhausted`` (tenant token bucket empty) or
``internal``.  Overload is therefore always an *answer*, never a
dropped connection or a client-side timeout.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Optional

from ..containment.result import ContainmentResult
from ..core.errors import ReproError
from ..core.query import ConjunctiveQuery
from ..flogic.encoding import encode_query, encode_rule
from ..flogic.parser import parse_program
from ..governance import ExecutionBudget

__all__ = [
    "PROTOCOL_VERSION",
    "OPS",
    "REASON_BAD_REQUEST",
    "REASON_UNKNOWN_OP",
    "REASON_INTERNAL",
    "UnknownOperation",
    "parse_rule",
    "budget_from_request",
    "error_response",
    "check_payload",
    "chase_payload",
    "decode_line",
]

#: Bumped when a response shape or op changes incompatibly; reported by
#: ``ping`` and in the TCP server's ready line.
PROTOCOL_VERSION = 2

#: Every op both transports understand.
OPS = (
    "ping",
    "check",
    "explain",
    "check_all",
    "chase",
    "stats",
    "shard_stats",
    "drain",
)

#: The request line was not valid JSON / not an object / missing fields.
REASON_BAD_REQUEST = "bad-request"
#: The ``op`` field names no known operation.
REASON_UNKNOWN_OP = "unknown-op"
#: The server failed in an unanticipated way; the connection survives.
REASON_INTERNAL = "internal"


class UnknownOperation(ReproError):
    """The request's ``op`` names no operation this protocol version has.

    Mapped to reason ``"unknown-op"`` so clients can distinguish a typo'd
    op from other malformed-request errors.
    """


#: Rule texts whose parsed query :func:`parse_rule` keeps.  Small on
#: purpose: a repeated text (a hot key) skips the F-logic parser, while
#: a stream of all-new texts can hold at most this many queries.
PARSE_CACHE_SIZE = 256


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_rule(text: str, default_name: str) -> ConjunctiveQuery:
    """One conjunctive query from one F-logic rule/query string.

    Parses are memoised per ``(text, default_name)`` in a
    :data:`PARSE_CACHE_SIZE`-entry LRU; sharing the result is safe
    because :class:`~repro.core.query.ConjunctiveQuery` is immutable.  A
    text that fails to parse raises every time and is never cached.
    """
    program = parse_program(text)
    rules = list(program.rules())
    if rules:
        return encode_rule(rules[0])
    asks = list(program.queries())
    if asks:
        return encode_query(asks[0], name=default_name)
    raise ReproError(f"no rule or query in {text!r}")


def budget_from_request(request: dict) -> Optional[ExecutionBudget]:
    """The request's budget fields as an :class:`ExecutionBudget`.

    Recognised keys: ``deadline`` (seconds), ``max_facts``,
    ``max_memory_mb``, ``max_steps``; absent keys stay unlimited and a
    request with none of them carries no budget at all (``None``).
    """
    if not any(
        k in request for k in ("deadline", "max_facts", "max_memory_mb", "max_steps")
    ):
        return None
    memory_mb = request.get("max_memory_mb")
    return ExecutionBudget(
        deadline_seconds=request.get("deadline"),
        max_facts=request.get("max_facts"),
        max_memory_bytes=(
            int(memory_mb * 1024 * 1024) if memory_mb is not None else None
        ),
        max_steps=request.get("max_steps"),
    )


def decode_line(line: str) -> dict:
    """One request object from one wire line (raises ``ReproError``)."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ReproError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(request, dict):
        raise ReproError("request must be a JSON object")
    return request


def error_response(
    message: str, *, reason: str = REASON_BAD_REQUEST, request_id=None
) -> dict:
    """The structured error/rejection envelope (see module docstring)."""
    response = {"ok": False, "error": message, "reason": reason}
    if request_id is not None:
        response["id"] = request_id
    return response


def check_payload(
    result: ContainmentResult,
    q1: ConjunctiveQuery,
    q2: ConjunctiveQuery,
    *,
    include_provenance: bool = False,
) -> dict:
    """The response body shared by ``check``, ``explain`` and each
    ``check_all`` element: verdict, reason, timing, witness fields.
    """
    payload = {
        "q1": q1.name,
        "q2": q2.name,
        "decision": result.decision.name,
        "contained": None if result.unknown else result.contained,
        "reason": result.reason.value,
        "elapsed_seconds": result.elapsed_seconds,
    }
    if result.witness_level is not None:
        payload["witness_level"] = result.witness_level
    if result.levels_chased is not None:
        payload["levels_chased"] = result.levels_chased
    if include_provenance and result.provenance is not None:
        payload["provenance"] = result.provenance.pretty()
    return payload


def chase_payload(chase_result, query: ConjunctiveQuery) -> dict:
    """The ``chase`` op's response body: status and size of the prefix."""
    return {
        "query": query.name,
        "failed": chase_result.failed,
        "saturated": chase_result.saturated,
        "level_reached": chase_result.level_reached,
        "facts": chase_result.size(),
        "steps": chase_result.steps,
    }
