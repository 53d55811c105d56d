"""End-to-end CLI tests through ``subprocess``.

Unlike :mod:`tests.integration.test_cli` (which calls ``main()``
in-process), these spawn ``python -m repro`` so the real argv parsing,
exit-code propagation and the ``serve`` stdin/stdout protocol are
exercised exactly as a shell user sees them.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

POSITIVE_RULES = (
    "q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_].\n"
    "qq(A,B) :- T1[A*=>T2], T2[B*=>_].\n"
)
NEGATIVE_RULES = "q(A) :- T1[A*=>T2].\nqq(A) :- T1[A*=>T2], T2::T3.\n"

Q1_TEXT = "q(A,B) :- T1[A*=>T2], T2::T3, T3[B*=>_]."
Q2_TEXT = "qq(A,B) :- T1[A*=>T2], T2[B*=>_]."


def run_cli(*args, stdin=None, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.flq"
    path.write_text(POSITIVE_RULES)
    return str(path)


class TestCheckExitCodes:
    def test_decided_contained_exits_zero(self, pair_file):
        proc = run_cli("check", pair_file)
        assert proc.returncode == 0, proc.stderr
        assert "⊆" in proc.stdout

    def test_decided_not_contained_exits_one(self, tmp_path):
        path = tmp_path / "neg.flq"
        path.write_text(NEGATIVE_RULES)
        proc = run_cli("check", str(path))
        assert proc.returncode == 1, proc.stderr

    def test_unknown_under_zero_deadline_exits_three(self, pair_file):
        proc = run_cli("check", pair_file, "--deadline", "0")
        assert proc.returncode == 3, proc.stderr
        assert "UNKNOWN" in proc.stdout.upper()

    def test_error_exits_two(self, tmp_path):
        path = tmp_path / "one.flq"
        path.write_text("q(A) :- T1[A*=>T2].\n")
        proc = run_cli("check", str(path))
        assert proc.returncode == 2

    def test_pool_flag_accepts_warm_and_cold(self, pair_file):
        for mode in ("warm", "cold"):
            proc = run_cli("check", pair_file, "--pool", mode)
            assert proc.returncode == 0, (mode, proc.stderr)

    def test_pool_flag_rejects_other_values(self, pair_file):
        proc = run_cli("check", pair_file, "--pool", "lukewarm")
        assert proc.returncode == 2


class TestServe:
    def test_serve_round_trip_and_per_line_errors(self):
        requests = "\n".join(
            [
                json.dumps({"id": 1, "op": "ping"}),
                json.dumps({"id": 2, "q1": Q1_TEXT, "q2": Q2_TEXT}),
                "this is not json",
                json.dumps({"id": 4, "op": "frobnicate"}),
                json.dumps({"id": 5, "op": "check", "q1": Q1_TEXT}),
                json.dumps(
                    {"id": 6, "q1": Q1_TEXT, "q2": Q2_TEXT, "deadline": 0}
                ),
                json.dumps({"id": 7, "op": "stats"}),
            ]
        )
        proc = run_cli("serve", stdin=requests + "\n")
        assert proc.returncode == 0, proc.stderr
        lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
        assert len(lines) == 7
        by_id = {r.get("id"): r for r in lines}

        assert by_id[1] == {"id": 1, "ok": True, "op": "ping", "protocol": 2}
        assert by_id[2]["ok"] is True
        assert by_id[2]["decision"] == "TRUE"
        assert by_id[2]["contained"] is True
        # Line 3 (bad JSON) has no id but still got its own error response.
        bad_json = [r for r in lines if "id" not in r]
        assert len(bad_json) == 1 and bad_json[0]["ok"] is False
        assert bad_json[0]["reason"] == "bad-request"
        assert by_id[4]["ok"] is False and "frobnicate" in by_id[4]["error"]
        assert by_id[4]["reason"] == "unknown-op"
        assert by_id[5]["ok"] is False and "q2" in by_id[5]["error"]
        assert by_id[5]["reason"] == "bad-request"
        # Per-request budget: deadline 0 gives a clean UNKNOWN, not an error.
        assert by_id[6]["ok"] is True
        assert by_id[6]["decision"] == "UNKNOWN"
        assert by_id[6]["contained"] is None
        # The service survived all of the above and still answers stats.
        assert by_id[7]["ok"] is True
        assert by_id[7]["stats"]["service"]["checks"] >= 1

    def test_serve_sharded_stdio_shard_stats_and_drain(self):
        requests = "\n".join(
            [
                json.dumps({"id": 1, "q1": Q1_TEXT, "q2": Q2_TEXT}),
                json.dumps({"id": 2, "op": "shard_stats"}),
                json.dumps({"id": 3, "op": "drain"}),
                # Anything after a drain response goes unanswered: the
                # session is over.
                json.dumps({"id": 4, "op": "ping"}),
            ]
        )
        proc = run_cli("serve", "--shards", "2", stdin=requests + "\n")
        assert proc.returncode == 0
        lines = [json.loads(line) for line in proc.stdout.splitlines() if line]
        by_id = {r.get("id"): r for r in lines}
        assert sorted(by_id) == [1, 2, 3]
        assert by_id[1]["ok"] is True and by_id[1]["shard"] in (0, 1)
        shards = by_id[2]["shards"]
        assert [row["shard"] for row in shards] == [0, 1]
        assert sum(row["routed"] for row in shards) == 1
        assert by_id[3] == {"id": 3, "ok": True, "op": "drain", "drained": True, "shards": 2}

    def test_serve_empty_input_exits_zero(self):
        proc = run_cli("serve", stdin="")
        assert proc.returncode == 0
        assert proc.stdout == ""

    def test_serve_blank_lines_are_skipped(self):
        proc = run_cli("serve", stdin="\n\n\n")
        assert proc.returncode == 0
        assert proc.stdout == ""


#: Two pairs with distinct q1: one shard gets two chase groups, so the
#: batch goes to the warm process pool.
POOL_BATCH = {
    "id": 1,
    "op": "check_all",
    "pairs": [
        {"q1": Q1_TEXT, "q2": Q2_TEXT},
        {"q1": "q(A) :- T1[A*=>T2].", "q2": "qq(A) :- T1[A*=>T2], T2::T3."},
    ],
}


def _children(pid: int) -> set[int]:
    """Pids of the direct children of *pid*, read from ``/proc``."""
    kids: set[int] = set()
    for path in Path(f"/proc/{pid}/task").glob("*/children"):
        kids.update(int(p) for p in path.read_text().split())
    return kids


def _running(pid: int) -> bool:
    """Whether *pid* exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def _assert_gone(pids: set[int], timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline and any(_running(p) for p in pids):
        time.sleep(0.1)
    assert not [p for p in pids if _running(p)], "orphaned pool workers"


@pytest.mark.skipif(
    not Path("/proc/self/task").is_dir(), reason="reads children from /proc"
)
class TestServeStopSignal:
    """SIGTERM drains the server and joins its pool workers on both
    transports; without it they would outlive the server as orphans."""

    def _serve(self, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    def _stop(self, proc) -> set[int]:
        """SIGTERM *proc* once its pool is up; return the pool's pids."""
        workers = _children(proc.pid)
        assert workers, "the check_all batch should have started the pool"
        proc.send_signal(signal.SIGTERM)
        # A signal that killed the server shows as a negative status.
        assert proc.wait(timeout=60) == 0
        return workers

    def test_sigterm_on_stdio_joins_pool_workers(self):
        with self._serve() as proc:
            try:
                proc.stdin.write(json.dumps(POOL_BATCH) + "\n")
                proc.stdin.flush()
                response = json.loads(proc.stdout.readline())
                assert response["ok"] is True and response["pairs"] == 2
                workers = self._stop(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
        _assert_gone(workers)

    def test_sigterm_on_tcp_joins_pool_workers(self):
        with self._serve("--tcp", "127.0.0.1:0") as proc:
            try:
                ready = json.loads(proc.stdout.readline())["serving"]
                address = (ready["host"], ready["port"])
                with socket.create_connection(address, timeout=60) as sock:
                    wire = sock.makefile("rw", encoding="utf-8", newline="\n")
                    wire.write(json.dumps(POOL_BATCH) + "\n")
                    wire.flush()
                    response = json.loads(wire.readline())
                    assert response["ok"] is True and response["pairs"] == 2
                    # The connection stays open across the signal.
                    workers = self._stop(proc)
            finally:
                if proc.poll() is None:
                    proc.kill()
        _assert_gone(workers)
