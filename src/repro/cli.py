"""Command-line interface.

Installed as ``flq`` (F-Logic Queries); also runnable as
``python -m repro``.  Subcommands:

``flq check FILE [--explain] [--no-anytime] [--pool warm|cold]
[--deadline S] [--max-facts N] [--max-memory-mb M] [--trace FILE]
[--metrics FILE]``
    FILE holds two or more rules; check containment of the first in each
    of the others (under Sigma_FL and classically).  ``--explain`` prints
    decision provenance; ``--no-anytime`` disables the interleaved
    chase/search schedule; ``--pool`` picks how multi-group batches are
    dispatched — ``warm`` (default) routes through the
    :class:`repro.api.Engine` service pool whose workers persist across
    batches, ``cold`` builds a throwaway pool per call (the legacy
    behaviour); the governance flags put the whole batch under an
    :class:`~repro.governance.ExecutionBudget` — budget-stopped pairs
    report UNKNOWN and the command exits 3; ``--trace``/``--metrics``
    export the span tree and the metrics registry.

``flq serve [--tcp HOST:PORT] [--shards N] [--tenant-rate R]
[--tenant-burst B] [--tenants FILE] [--max-active N] [--max-pending N]
[--store-capacity N] [--result-cache N] [--store-path PATH]
[--snapshot-policy P] [--deadline S] ...``
    Long-running service mode: one JSON request per line, one JSON
    response per line, over stdin/stdout by default or over asyncio TCP
    with ``--tcp`` (see :mod:`repro.serve` and ``docs/protocol.md``).
    Requests route across ``--shards`` engine shards by consistent hash
    of the query's canonical key; per-tenant token-bucket quotas and
    budget envelopes come from ``--tenant-rate``/``--tenants``.
    ``--store-path`` mounts a persistent chase-snapshot database
    (:mod:`repro.store`) under every shard — a killed and restarted
    server answers repeat requests from the persisted store without
    re-chasing.  A malformed or failing request reports ``{"ok": false,
    "error": ..., "reason": ...}`` on its own line and the service keeps
    serving; EOF or a ``drain`` op exits 0.  The governance flags set
    the *service envelope* — tenant and per-request budgets can only
    tighten it.

``flq store {inspect,vacuum,warm} PATH ...``
    Operate on a persistent chase-snapshot database (see
    ``docs/operations.md``): ``inspect`` prints the stored runs and
    aggregate sizes (``--json`` for machine-readable output), ``vacuum``
    compacts the file, and ``warm PATH FILE`` pre-chases every rule in
    FILE into the store so a fleet starts warm.

``flq chase FILE [--max-level N] [--graph] [--deadline S] [--max-facts N]
[--max-memory-mb M] [--trace FILE] [--metrics FILE]``
    Chase the first rule in FILE and print the instance (and graph).
    Under a budget an interrupted chase prints its budget report and
    exits 3 instead of hanging on cyclic inputs.

``flq ask KB_FILE QUERY``
    Load an F-logic fact base and answer a query string.

``flq experiment ID``
    Run one experiment (E1..E13) or ``all``.

``flq termination FILE``
    Predict chase termination for the first rule in FILE.

``flq minimize FILE``
    Drop Sigma_FL-redundant conjuncts from every rule in FILE.

``flq classify FILE``
    Compute the containment taxonomy of the rules in FILE.

``flq explain KB_FILE [FACT]``
    Print the Sigma_FL derivation tree of an entailed fact — or, when
    FACT is omitted, the containment provenance (witness chase levels,
    rule-firing sequence) of the first rule against the others.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Optional, Sequence

from .analysis.cycles import predict_chase_termination
from .api import Engine
from .chase.engine import ChaseConfig, ChaseEngine, chase
from .chase.graph import ChaseGraph
from .containment.bounded import ContainmentChecker
from .containment.classic import contained_classic
from .core.errors import ExecutionInterrupted, ReproError
from .core.query import ConjunctiveQuery
from .flogic.encoding import encode_query, encode_rule
from .flogic.kb import KnowledgeBase
from .flogic.parser import parse_program
from .governance.budget import ExecutionBudget, Governor
from .obs import MetricsRegistry, Observability, Tracer

__all__ = ["main", "build_parser"]


def _load_queries(path: str) -> list[ConjunctiveQuery]:
    program = parse_program(Path(path).read_text())
    queries: list[ConjunctiveQuery] = []
    for rule in program.rules():
        queries.append(encode_rule(rule))
    for i, ask in enumerate(program.queries(), start=1):
        queries.append(encode_query(ask, name=f"query{i}"))
    if not queries:
        raise ReproError(f"{path} contains no rules or queries")
    return queries


def _make_obs(args: argparse.Namespace) -> Optional[Observability]:
    """An Observability sink when ``--trace``/``--metrics`` was given.

    Returns ``None`` (so downstream code keeps the zero-cost no-op
    default) when neither flag is present.
    """
    trace = getattr(args, "trace", None)
    metrics = getattr(args, "metrics", None)
    if trace is None and metrics is None:
        return None
    return Observability(
        tracer=Tracer() if trace is not None else None,
        metrics=MetricsRegistry() if metrics is not None else None,
    )


def _export_obs(args: argparse.Namespace, obs: Optional[Observability]) -> None:
    """Write the trace / metrics files the flags asked for."""
    if obs is None:
        return
    trace = getattr(args, "trace", None)
    if trace is not None and obs.tracer.enabled:
        obs.tracer.write(trace)
        print(f"trace written to {trace}", file=sys.stderr)
    metrics = getattr(args, "metrics", None)
    if metrics is not None and obs.metrics is not None:
        obs.metrics.write_json(metrics)
        print(f"metrics written to {metrics}", file=sys.stderr)


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "wall-clock budget; work stopped by the deadline reports "
            "UNKNOWN (check) or a budget report (chase) and exits 3"
        ),
    )
    parser.add_argument(
        "--max-facts",
        type=int,
        metavar="N",
        default=None,
        help="stop when the chase instance exceeds N conjuncts",
    )
    parser.add_argument(
        "--max-memory-mb",
        type=float,
        metavar="MB",
        default=None,
        help=(
            "stop when the chase instance's approximate resident size "
            "(sys.getsizeof sampling) exceeds MB megabytes"
        ),
    )


def _budget_from_args(args: argparse.Namespace) -> Optional[ExecutionBudget]:
    """An :class:`ExecutionBudget` from the governance flags, or ``None``."""
    deadline = getattr(args, "deadline", None)
    max_facts = getattr(args, "max_facts", None)
    max_memory_mb = getattr(args, "max_memory_mb", None)
    if deadline is None and max_facts is None and max_memory_mb is None:
        return None
    return ExecutionBudget(
        deadline_seconds=deadline,
        max_facts=max_facts,
        max_memory_bytes=(
            int(max_memory_mb * 1024 * 1024) if max_memory_mb is not None else None
        ),
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="export a span trace (JSON, or CSV when FILE ends in .csv)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        default=None,
        help="export counters/gauges/histograms as JSON",
    )


def _cmd_check(args: argparse.Namespace) -> int:
    queries = _load_queries(args.file)
    if len(queries) < 2:
        print("need at least two rules to check containment", file=sys.stderr)
        return 2
    obs = _make_obs(args)
    budget = _budget_from_args(args)
    q1 = queries[0]
    pairs = [(q1, q2) for q2 in queries[1:]]
    # Batch pipeline: every verdict draws on one shared chase of q1.  The
    # default anytime schedule extends that chase only as far as each
    # witness needs; --no-anytime chases to the largest bound up front.
    with Engine(obs=obs, budget=budget) as engine:
        if args.pool == "warm":
            results = engine.check_all(
                pairs,
                level_bound=args.level_bound,
                anytime=not args.no_anytime,
            )
        else:
            # Legacy cold path: a throwaway pool per call, no service.
            results = engine.checker.check_all(
                pairs,
                level_bound=args.level_bound,
                anytime=not args.no_anytime,
                budget=budget,
                parallel=True,
            )
        status = 0
        for q2, result in zip(queries[1:], results):
            print(result.explain())
            if result.unknown:
                status = 3
                continue
            classic = contained_classic(q1, q2)
            print(f"  (classic, constraint-free verdict: {classic.contained})")
            if args.explain:
                provenance = result.explain_data()
                if provenance is not None:
                    for line in provenance.pretty().splitlines():
                        print(f"  {line}")
            if not result.contained and status == 0:
                status = 1
        if args.stats:
            print(f"chase store: {engine.checker.stats}")
            print(f"service: {engine.stats()}")
    _export_obs(args, obs)
    return status


def _parse_hostport(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)``; port 0 binds an ephemeral port."""
    host, sep, port = spec.rpartition(":")
    if not sep or not host:
        raise ReproError(f"--tcp expects HOST:PORT, got {spec!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ReproError(f"--tcp port must be an integer, got {port!r}") from exc


def _tenant_registry(args: argparse.Namespace):
    """The :class:`~repro.serve.tenancy.TenantRegistry` the flags ask for.

    ``--tenants FILE`` loads per-tenant policies from JSON (the ``"*"``
    key sets the default policy); ``--tenant-rate``/``--tenant-burst``
    set the default policy inline.  With neither, traffic is unmetered.
    """
    from .serve.tenancy import TenantPolicy, TenantRegistry

    policies = {}
    default_policy = None
    if args.tenants is not None:
        raw = json.loads(Path(args.tenants).read_text())
        if not isinstance(raw, dict):
            raise ReproError("--tenants file must hold a JSON object")
        for name, spec in raw.items():
            policy = TenantPolicy.from_dict(spec)
            if name == "*":
                default_policy = policy
            else:
                policies[name] = policy
    if args.tenant_rate is not None:
        default_policy = TenantPolicy(
            rate=args.tenant_rate, burst=args.tenant_burst
        )
    return TenantRegistry(policies, default_policy=default_policy)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Newline-delimited JSON containment service (stdio or TCP).

    Without ``--tcp``: one request per stdin line, one response per
    stdout line; EOF (or a ``drain`` op) exits 0.  With ``--tcp
    HOST:PORT``: an asyncio server on that address (port 0 = ephemeral);
    the bound address is announced on stdout as one ``{"serving": ...}``
    line, and a ``drain`` op shuts the server down gracefully.  SIGTERM
    and SIGINT drain the server the same way in either mode.  In both
    modes requests route across ``--shards`` engine shards by consistent
    hash of the query's canonical key, errors are **per line** (a bad
    request never stops the service), and the governance flags set the
    *service envelope* — tenant and per-request budgets only tighten it.
    The full wire protocol is documented in ``docs/protocol.md``.
    """
    from .serve.server import ContainmentServer
    from .store import StoreConfig

    obs = _make_obs(args)
    budget = _budget_from_args(args)
    defaults = StoreConfig()
    store_config = StoreConfig(
        capacity=(
            args.store_capacity
            if args.store_capacity is not None
            else defaults.capacity
        ),
        path=args.store_path,
        snapshot_policy=args.snapshot_policy,
        result_cache=args.result_cache,
    )
    server = ContainmentServer(
        args.shards,
        tenants=_tenant_registry(args),
        obs=obs,
        budget=budget,
        max_active=args.max_active,
        max_pending=args.max_pending,
        store_config=store_config,
    )
    # SIGTERM and SIGINT drain like the ``drain`` op; the finally clause
    # below then closes the shards, which joins their pool workers.
    stop_signals = (signal.SIGTERM, signal.SIGINT)
    try:
        if args.tcp is None:
            return server.serve_stdio(stop_signals=stop_signals)
        import asyncio

        from .serve.protocol import PROTOCOL_VERSION

        host, port = _parse_hostport(args.tcp)

        def ready(bound_host: str, bound_port: int) -> None:
            sys.stdout.write(
                json.dumps(
                    {
                        "serving": {
                            "host": bound_host,
                            "port": bound_port,
                            "shards": server.shards,
                            "protocol": PROTOCOL_VERSION,
                        }
                    }
                )
                + "\n"
            )
            sys.stdout.flush()

        asyncio.run(
            server.serve_tcp(host, port, ready=ready, stop_signals=stop_signals)
        )
        return 0
    finally:
        server.close()
        _export_obs(args, obs)


def _cmd_store(args: argparse.Namespace) -> int:
    """Operate on a persistent chase-snapshot database (``repro.store``).

    ``inspect`` opens the database read-only and prints every stored run
    plus the aggregate counts; ``vacuum`` compacts the file and reports
    the reclaimed bytes; ``warm`` pre-chases rules into the store so a
    service fleet pointed at the same path starts warm.  The runbook
    lives in ``docs/operations.md``.
    """
    from .containment.store import ChaseStore
    from .store import SnapshotStore

    if args.store_command == "inspect":
        store = SnapshotStore(args.path, read_only=True)
        try:
            stats = store.stats()
            entries = store.entries()
        finally:
            store.close()
        if args.json:
            print(json.dumps({"stats": stats, "entries": entries}, indent=2))
            return 0
        print(
            f"{args.path}: {stats['runs']} runs, {stats['facts']} facts, "
            f"{stats['bytes']} bytes"
        )
        for entry in entries:
            state = "failed" if entry["failed"] else (
                "saturated" if entry["saturated"] else f"bound={entry['bound']}"
            )
            print(
                f"  {entry['key'][:12]}  {state:>12}  "
                f"levels<={entry['max_level']}  facts={entry['facts']}  "
                f"{entry['query']}"
            )
        return 0
    if args.store_command == "vacuum":
        store = SnapshotStore(args.path)
        try:
            before, after = store.vacuum()
        finally:
            store.close()
        print(f"{args.path}: {before} -> {after} bytes "
              f"({before - after} reclaimed)")
        return 0
    assert args.store_command == "warm"
    queries = _load_queries(args.file)
    store = ChaseStore(persist=args.path)
    try:
        for query in queries:
            with store.session(query, args.max_level) as (run, _):
                run.extend_to(args.max_level)
        store.flush()
        written = store.stats.snapshot_stores
    finally:
        store.close()
    print(
        f"{args.path}: warmed {len(queries)} queries "
        f"(max level {args.max_level}, {written} snapshots written)"
    )
    return 0


def _cmd_chase(args: argparse.Namespace) -> int:
    query = _load_queries(args.file)[0]
    obs = _make_obs(args)
    budget = _budget_from_args(args)
    if budget is None:
        result = chase(
            query, max_level=args.max_level, track_graph=args.graph, obs=obs
        )
    else:
        engine = ChaseEngine(
            config=ChaseConfig(max_level=args.max_level, track_graph=args.graph),
            obs=obs if obs is not None else None,
        )
        run = engine.start(query)
        try:
            run.extend_to(args.max_level, governor=Governor(budget, obs=obs))
        except ExecutionInterrupted as exc:
            print(f"chase interrupted: {exc}", file=sys.stderr)
            print(repr(run.result()))
            _export_obs(args, obs)
            return 3
        result = run.result()
    _export_obs(args, obs)
    print(repr(result))
    if result.failed:
        print("chase FAILED: the query is unsatisfiable under Sigma_FL")
        return 1
    assert result.instance is not None
    print(result.instance.pretty())
    if args.graph:
        print()
        print(ChaseGraph.from_result(result).pretty_table())
    return 0


def _cmd_ask(args: argparse.Namespace) -> int:
    kb = KnowledgeBase()
    kb.load(Path(args.kb).read_text())
    answers = kb.ask(args.query, certain_only=args.certain)
    if not answers:
        print("no answers")
        return 1
    for answer in answers:
        print(answer)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import run_all, run_experiment

    if args.id.lower() == "all":
        for report in run_all():
            print(report.render())
            print()
        return 0
    print(run_experiment(args.id).render())
    return 0


def _cmd_termination(args: argparse.Namespace) -> int:
    query = _load_queries(args.file)[0]
    report = predict_chase_termination(query)
    print(report)
    return 0 if report.guaranteed_terminating else 1


def _cmd_minimize(args: argparse.Namespace) -> int:
    from .containment.minimize import minimize_query
    from .flogic.printer import query_to_flogic

    any_reduced = False
    for query in _load_queries(args.file):
        result = minimize_query(query)
        print(result)
        print("  ", query_to_flogic(result.minimized))
        any_reduced = any_reduced or result.reduced
    return 0 if any_reduced else 1


def _cmd_classify(args: argparse.Namespace) -> int:
    from .extensions.classify import classify_queries

    queries = _load_queries(args.file)
    taxonomy = classify_queries(queries)
    print(taxonomy.pretty())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    if args.fact is None:
        # Containment-provenance mode: the file holds rules; explain why
        # the first is (not) contained in each of the others.
        queries = _load_queries(args.kb)
        if len(queries) < 2:
            print(
                "explain without a FACT needs a file with two or more rules",
                file=sys.stderr,
            )
            return 2
        checker = ContainmentChecker()
        q1 = queries[0]
        status = 0
        for q2 in queries[1:]:
            result = checker.check(q1, q2, explain=True)
            print(result.provenance.pretty())
            if not result.contained:
                status = 1
        return status
    kb = KnowledgeBase()
    kb.load(Path(args.kb).read_text())
    derivation = kb.explain(args.fact)
    print(derivation.pretty())
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    from .shell import run_shell

    kb = KnowledgeBase()
    if args.kb:
        kb.load(Path(args.kb).read_text())
    return run_shell(kb)


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``flq`` argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="flq",
        description=(
            "F-logic Lite meta-query tools: containment (Cali & Kifer, "
            "VLDB 2006), chase inspection, and knowledge-base queries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="containment of the first rule in the rest")
    p_check.add_argument("file", help="file with two or more rules")
    p_check.add_argument(
        "--level-bound",
        type=int,
        default=None,
        help="override the Theorem-12 chase level bound",
    )
    p_check.add_argument(
        "--no-anytime",
        action="store_true",
        help=(
            "disable the interleaved chase/search schedule: chase to the "
            "full bound first, then run one monolithic witness search"
        ),
    )
    p_check.add_argument(
        "--stats",
        action="store_true",
        help="print chase-store hit/miss/extend counters after the verdicts",
    )
    p_check.add_argument(
        "--pool",
        choices=("warm", "cold"),
        default="warm",
        help=(
            "batch dispatch mode: 'warm' reuses the service worker pool "
            "across batches, 'cold' builds a throwaway pool per call"
        ),
    )
    p_check.add_argument(
        "--explain",
        action="store_true",
        help="print decision provenance (witness levels, rule firings) per verdict",
    )
    _add_obs_flags(p_check)
    _add_budget_flags(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_chase = sub.add_parser("chase", help="chase a query and print the instance")
    p_chase.add_argument("file", help="file whose first rule is chased")
    p_chase.add_argument("--max-level", type=int, default=12)
    p_chase.add_argument("--graph", action="store_true", help="print the chase graph")
    _add_obs_flags(p_chase)
    _add_budget_flags(p_chase)
    p_chase.set_defaults(func=_cmd_chase)

    p_serve = sub.add_parser(
        "serve",
        help=(
            "newline-delimited JSON containment service over stdin/stdout "
            "or TCP (--tcp), sharded and quota-governed"
        ),
    )
    p_serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help=(
            "serve over asyncio TCP on this address instead of stdio "
            "(port 0 binds an ephemeral port; the bound address is "
            "announced as a {\"serving\": ...} line on stdout)"
        ),
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help=(
            "engine shards; requests route by consistent hash of the "
            "query's canonical key so each shard's chase store and "
            "decided-result cache stay hot for its key range"
        ),
    )
    p_serve.add_argument(
        "--max-active",
        type=int,
        default=8,
        metavar="N",
        help="per-shard requests executing concurrently before new ones queue",
    )
    p_serve.add_argument(
        "--max-pending",
        type=int,
        default=64,
        metavar="N",
        help="per-shard queued requests before new ones are rejected",
    )
    p_serve.add_argument(
        "--store-capacity",
        type=int,
        default=None,
        metavar="N",
        help="per-shard chase-store LRU entries (default: store default)",
    )
    p_serve.add_argument(
        "--result-cache",
        type=int,
        default=4096,
        metavar="N",
        help="per-shard decided-verdict LRU entries (0 disables recall)",
    )
    p_serve.add_argument(
        "--store-path",
        metavar="PATH",
        default=None,
        help=(
            "persistent chase-snapshot database (a directory or .db "
            "file) shared by every shard; a restarted server answers "
            "repeat requests from it without re-chasing"
        ),
    )
    p_serve.add_argument(
        "--snapshot-policy",
        choices=("always", "evict", "manual"),
        default="always",
        help=(
            "when chase runs are written back to --store-path: on every "
            "session close (always), only on LRU eviction (evict), or "
            "only on explicit flush/shutdown (manual)"
        ),
    )
    p_serve.add_argument(
        "--tenant-rate",
        type=float,
        default=None,
        metavar="R",
        help=(
            "default tenant quota: R requests/second sustained "
            "(unmetered when omitted)"
        ),
    )
    p_serve.add_argument(
        "--tenant-burst",
        type=float,
        default=16.0,
        metavar="B",
        help="default tenant burst: tokens a tenant may bank above its rate",
    )
    p_serve.add_argument(
        "--tenants",
        metavar="FILE",
        default=None,
        help=(
            "JSON file of per-tenant policies {name: {rate, burst, "
            "deadline, max_facts, max_memory_mb, max_steps}}; the '*' "
            "key sets the default policy"
        ),
    )
    _add_obs_flags(p_serve)
    _add_budget_flags(p_serve)
    p_serve.set_defaults(func=_cmd_serve)

    p_store = sub.add_parser(
        "store",
        help="inspect, compact or pre-warm a persistent chase-snapshot database",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_store_inspect = store_sub.add_parser(
        "inspect", help="list the stored runs and aggregate sizes"
    )
    p_store_inspect.add_argument("path", help="snapshot database (directory or .db file)")
    p_store_inspect.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_store_vacuum = store_sub.add_parser(
        "vacuum", help="compact the database file and report reclaimed bytes"
    )
    p_store_vacuum.add_argument("path", help="snapshot database (directory or .db file)")
    p_store_warm = store_sub.add_parser(
        "warm", help="pre-chase every rule in FILE into the store"
    )
    p_store_warm.add_argument("path", help="snapshot database (directory or .db file)")
    p_store_warm.add_argument("file", help="file of rules to chase")
    p_store_warm.add_argument(
        "--max-level",
        type=int,
        default=12,
        metavar="N",
        help="chase level each rule is materialised to (default 12)",
    )
    p_store.set_defaults(func=_cmd_store)

    p_ask = sub.add_parser("ask", help="answer a query over an F-logic fact base")
    p_ask.add_argument("kb", help="file of F-logic facts")
    p_ask.add_argument("query", help="query text, e.g. '?- X::person.'")
    p_ask.add_argument(
        "--certain", action="store_true", help="exclude answers with invented values"
    )
    p_ask.set_defaults(func=_cmd_ask)

    p_exp = sub.add_parser("experiment", help="run a paper experiment")
    p_exp.add_argument("id", help="experiment id (E1..E12) or 'all'")
    p_exp.set_defaults(func=_cmd_experiment)

    p_term = sub.add_parser("termination", help="predict chase termination")
    p_term.add_argument("file", help="file whose first rule is analysed")
    p_term.set_defaults(func=_cmd_termination)

    p_min = sub.add_parser("minimize", help="drop Sigma_FL-redundant conjuncts")
    p_min.add_argument("file", help="file of rules to minimise")
    p_min.set_defaults(func=_cmd_minimize)

    p_cls = sub.add_parser("classify", help="containment taxonomy of rules")
    p_cls.add_argument("file", help="file of same-arity rules")
    p_cls.set_defaults(func=_cmd_classify)

    p_exp2 = sub.add_parser(
        "explain",
        help=(
            "derivation tree of an entailed fact, or (without FACT) "
            "containment provenance for the rules in the file"
        ),
    )
    p_exp2.add_argument("kb", help="file of F-logic facts (or rules, without FACT)")
    p_exp2.add_argument(
        "fact",
        nargs="?",
        default=None,
        help="fact text, e.g. 'john:person.'; omit for containment provenance",
    )
    p_exp2.set_defaults(func=_cmd_explain)

    p_shell = sub.add_parser("shell", help="interactive F-logic Lite shell")
    p_shell.add_argument(
        "kb", nargs="?", default=None, help="optional fact file to preload"
    )
    p_shell.set_defaults(func=_cmd_shell)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status (see module doc)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module entry point
    raise SystemExit(main())
