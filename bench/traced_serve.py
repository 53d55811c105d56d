"""``flq serve`` with the benchmark's timing wrappers installed.

Usage: ``python -m bench.traced_serve SPANS_FILE serve [flq serve flags]``.
The spans are written to ``SPANS_FILE`` when the server exits, and also
whenever the process receives ``SIGUSR1`` (the benchmark sends it before
a SIGKILL, which no exit handler survives).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

from .tracing import Recorder, install


def main(argv: list[str]) -> int:
    spans = Path(argv[0])
    recorder = Recorder()
    install(recorder)
    signal.signal(signal.SIGUSR1, lambda signum, frame: recorder.dump(spans))
    from repro.cli import main as flq

    try:
        return flq(argv[1:])
    finally:
        recorder.dump(spans)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
