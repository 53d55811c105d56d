"""``python -m bench``: run the workloads, print every metric, check verdicts.

Usage::

    python -m bench [--seed N] [--workload W] [--trace] [--out FILE]

Each metric is printed as ``workload metric value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--trace`` the metrics are the gated
end-to-end ones; with ``--trace`` a run with timing wrappers installed adds
the per-layer ones (a single ``--workload`` then runs only the traced run).
The exit status is 0 when every verdict checked out and every phase was
valid, 1 otherwise, and 2 when the program's sources are missing.

Runs driven by ``BENCHMARK.json`` also pass ``--seconds`` (its
``run_seconds``) and ``--trace 0`` or ``--trace 1``.  ``--seconds`` sizes
the fixed work of every phase, so only runs at the same value compare;
``bench/baseline.json`` was measured at the default.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import OUT, SRC

#: Measured seconds per workload run, unless ``--seconds`` says otherwise.
DEFAULT_SECONDS = 20.0

_DIAGNOSTIC_UNITS = {
    "phase_p90_ms": "ms",
    "phase_p99_ms": "ms",
    "lag_p99_ms": "ms",
    "trail_s": "s",
    "slo_limit_ms": "ms",
    "slo_miss_frac": "fraction",
    "failed_frac": "fraction",
    "open_requests": "count",
    "closed_requests": "count",
    "batches": "count",
    "positive_frac": "fraction",
    "oracle_checked": "count",
    "setup_samples_s": "s",
    "verdict_digest": "blake2b",
    "trace_file": "path",
}


def _print(workload: str, metric: str, value, unit: str) -> None:
    if isinstance(value, list):
        value = ",".join(repr(v) for v in value)
    print(f"{workload} {metric} {value} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", default=str(OUT / "report.json"))
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from .suite import END_TO_END, TIMINGS, run_workload
    from .tracing import per_layer_units
    from .workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    if args.seconds != DEFAULT_SECONDS:
        print(f"note: --seconds {args.seconds:g} sizes the phases differently from "
              f"bench/baseline.json ({DEFAULT_SECONDS:g})", file=sys.stderr)
    single = len(names) == 1
    layer_units = per_layer_units()
    timed = {m: u for m, (u, _) in (END_TO_END | TIMINGS).items()}
    report = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}

    def account(name, outcome, units, values):
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
        for problem in outcome.problems:
            print(f"{name}: {problem}", file=sys.stderr)
            result["correct"] = False
        for metric, unit in units.items():
            key = metric if single else f"{name}/{metric}"
            result["metrics"][key] = {"value": values[metric], "unit": unit}

    for name in names:
        entry = report["workloads"][name] = {}
        plain = None
        if not (args.trace and single):
            plain = run_workload(name, args.seed, args.seconds, trace=False)
            for metric, unit in timed.items():
                _print(name, metric, plain.metrics[metric], unit)
            for metric, value in plain.diagnostics.items():
                _print(name, metric, value, _DIAGNOSTIC_UNITS.get(metric, "-"))
            account(name, plain, {m: u for m, (u, _) in END_TO_END.items()}, plain.metrics)
            entry.update(vars(plain))
        if args.trace:
            traced = run_workload(name, args.seed, args.seconds, trace=True)
            for metric, unit in layer_units.items():
                _print(name, metric, traced.per_layer[metric], unit)
            for metric, unit in timed.items():
                _print(name, f"traced.{metric}", traced.metrics[metric], unit)
                if plain is not None:
                    overhead = traced.metrics[metric] - plain.metrics[metric]
                    _print(name, f"trace_overhead.{metric}", overhead, unit)
            account(name, traced, layer_units, traced.per_layer)
            entry["traced"] = vars(traced)

    OUT.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1, default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
