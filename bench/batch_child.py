"""The batch-cyclic load: a fresh process driving ``Engine.check_all``.

Usage: ``python -m bench.batch_child SEED BATCHES [--setup-only]
[--spans FILE]``.  The process reports on stdout, one JSON object a line:

- ``{"ready": true}`` once ``repro.api.Engine`` is imported and built;
- ``{"setup_batch_s": s}`` after the first batch, which spawns the pool;
- ``{"result": {...}}`` after BATCHES measured batches (not with
  ``--setup-only``).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
import time

from .loadgen import vmhwm_mb
from .tracing import Recorder, install


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _child_pids() -> list[int]:
    """Direct children of this process (the warm pool's workers)."""
    pids = []
    for path in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        with open(path) as f:
            pids.extend(int(p) for p in f.read().split())
    return pids


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.batch_child")
    parser.add_argument("seed", type=int)
    parser.add_argument("batches", type=int)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        recorder = Recorder()
        install(recorder)
    from repro.api import Engine

    from .workloads import BatchStream

    engine = Engine()
    _emit({"ready": True})
    try:
        stream = BatchStream(args.seed)
        decisions = []
        start = time.perf_counter()
        decisions += [r.decision.name for r in engine.check_all(stream.batch(0))]
        _emit({"setup_batch_s": time.perf_counter() - start})
        if args.setup_only:
            return 0
        stream.batch(args.batches)  # generate every input before timing
        before = engine.stats()
        latencies, ends = [], []
        start = time.perf_counter()
        for index in range(1, args.batches + 1):
            pairs = stream.batch(index)
            t0 = time.perf_counter()
            results = engine.check_all(pairs)
            ends.append(time.perf_counter())
            latencies.append(ends[-1] - t0)
            decisions += [r.decision.name for r in results]
        after = engine.stats()
        peak = max([vmhwm_mb(os.getpid())] + [vmhwm_mb(p) for p in _child_pids()])
        _emit(
            {
                "result": {
                    "start": start,
                    "ends": ends,
                    "latencies": latencies,
                    "decisions": decisions,
                    "stats_before": before,
                    "stats_after": after,
                    "peak_rss_mb": peak,
                }
            }
        )
        return 0
    finally:
        engine.close()
        if recorder is not None:
            recorder.dump(args.spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
