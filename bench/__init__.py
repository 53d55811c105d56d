"""End-to-end and per-layer benchmark of the containment stack.

Run as ``python -m bench`` from the repository root; see ``bench/README.md``.
The benchmark drives the program only through its public entry points
(``python -m repro serve --tcp`` and ``repro.api.Engine``) and imports the
program from ``src/`` of the same checkout, never from an installed copy.
"""

from pathlib import Path

#: Root of the checkout the benchmark lives in.
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; every child process gets this on ``PYTHONPATH``.
SRC = ROOT / "src"
#: Everything a run leaves behind (reports, traces, temporary stores).
OUT = Path(__file__).resolve().parent / "out"
