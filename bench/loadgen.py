"""Server processes and the single-threaded asyncio load generator.

All load comes from one asyncio thread over at most two pipelined TCP
connections; responses are matched to requests by ``id``.  An open loop
sends on a fixed schedule and times each request from its *due* time, so a
stall also charges the requests queued behind it.  A closed loop keeps a
fixed number of requests outstanding per connection.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import select
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from . import OUT, ROOT, SRC
from .workloads import with_id

__all__ = [
    "child_env",
    "vmhwm_mb",
    "ChildProcess",
    "ServerProcess",
    "Pipeline",
    "OpenResult",
    "ClosedResult",
    "open_loop",
    "closed_loop",
]

#: Connections the load generator opens to a server.
CONNECTIONS = 2
#: Requests each connection keeps outstanding in a closed loop.
CLOSED_DEPTH = 8
#: Longest wait for a server's ready line, a drain, or a phase's stragglers.
PATIENCE_S = 60.0


def child_env() -> dict:
    """Environment of every program process the benchmark starts.

    ``PYTHONPATH`` is exactly this checkout's ``src`` (never an inherited
    one), temporary files stay inside the checkout, and a fixed hash seed
    keeps set iteration order, and so chase work, the same run to run.
    """
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", TMPDIR=str(tmp))
    return env


def vmhwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of process *pid*, in MB (0 if gone)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class ChildProcess:
    """A ``python -m MODULE`` process of this checkout that reports on stdout.

    It speaks one JSON object a line; its standard error goes to *log*.
    """

    def __init__(self, args: list[str], log: Path):
        self._log = open(log, "ab")
        self.log = log
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", *args],
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )

    def line(self, patience: float = PATIENCE_S) -> dict:
        """The next line the process writes (waits at most *patience* s)."""
        ready, _, _ = select.select([self.proc.stdout], [], [], patience)
        raw = self.proc.stdout.readline() if ready else b""
        if not raw:
            raise RuntimeError(f"{self.proc.args[2]} wrote nothing; see {self.log}")
        return json.loads(raw)

    def close(self) -> None:
        """Wait for the process to exit on its own, then reap it."""
        try:
            self.proc.wait(timeout=PATIENCE_S)
        except subprocess.TimeoutExpired:
            pass
        self.kill()

    def kill(self) -> None:
        """SIGKILL (a no-op once the process has exited) and reap."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class ServerProcess(ChildProcess):
    """One ``python -m repro serve --tcp`` process, started and ready.

    With *spans* set, the server runs under ``bench.traced_serve`` and
    writes its spans to that file when it exits or is sent ``SIGUSR1``.
    """

    def __init__(self, serve_args: list[str], log: Path, spans: Optional[Path] = None):
        module = ["repro"] if spans is None else ["bench.traced_serve", str(spans)]
        super().__init__([*module, "serve", "--tcp", "127.0.0.1:0", *serve_args], log)
        self.spans = spans
        try:
            serving = self.line()["serving"]
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - self.started
        self.host, self.port = serving["host"], serving["port"]

    def request(self, obj: dict) -> dict:
        """One request on a fresh control connection (not a load connection)."""
        with socket.create_connection((self.host, self.port), timeout=PATIENCE_S) as sock:
            sock.sendall((json.dumps(obj) + "\n").encode())
            data = b""
            while not data.endswith(b"\n"):
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        return json.loads(data)

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def peak_rss_mb(self) -> float:
        return vmhwm_mb(self.proc.pid)

    def dump_spans(self) -> None:
        """Make a traced server write its spans now (before a SIGKILL)."""
        assert self.spans is not None
        self.spans.unlink(missing_ok=True)
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + PATIENCE_S
        while not self.spans.exists():
            if time.perf_counter() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.01)

    def drain(self) -> None:
        """Graceful shutdown through the ``drain`` op; waits for exit."""
        try:
            self.request({"op": "drain"})
        finally:
            self.close()


class _Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: dict[int, Callable] = {}
        self.task: Optional[asyncio.Task] = None

    async def read_responses(self) -> None:
        while True:
            raw = await self.reader.readline()
            if not raw:
                return
            now = time.perf_counter()
            response = json.loads(raw)
            self.pending.pop(response["id"])(response, now)


#: Request ids, unique across every Pipeline of this process: the phases of
#: a run share one server, and its spans pair admit and execute by id.
_REQUEST_IDS = itertools.count()


class Pipeline:
    """Pipelined connections to one server; callbacks run on each response."""

    def __init__(self) -> None:
        self._conns: list[_Connection] = []

    async def open(self, host: str, port: int, count: int = CONNECTIONS) -> "Pipeline":
        for _ in range(count):
            reader, writer = await asyncio.open_connection(host, port)
            conn = _Connection(reader, writer)
            conn.task = asyncio.ensure_future(conn.read_responses())
            self._conns.append(conn)
        return self

    @property
    def connections(self) -> int:
        return len(self._conns)

    def send(self, conn: int, body: str, callback: Callable) -> None:
        """Send *body* on connection *conn*; ``callback(response, t)`` later."""
        rid = next(_REQUEST_IDS)
        c = self._conns[conn]
        c.pending[rid] = callback
        c.writer.write((with_id(body, rid) + "\n").encode())

    async def close(self) -> None:
        for c in self._conns:
            c.writer.close()
        for c in self._conns:
            await asyncio.gather(c.task, return_exceptions=True)
            try:
                await c.writer.wait_closed()
            except ConnectionError:
                pass
        self._conns.clear()


@dataclass
class OpenResult:
    """What one open-loop phase observed (index = send order)."""

    due: list  # when each request was due to be sent
    latencies: list  # seconds from due time to response; None if unanswered
    lags: list  # seconds the generator sent each request late
    responses: list
    #: Requests due by the phase end minus those completed, in seconds of
    #: schedule; above 1 s the server is falling behind (a growing backlog).
    trail_s: float
    #: From the first send to the last response: where this phase's
    #: server-side spans start.
    window: tuple


@dataclass
class ClosedResult:
    """What one closed-loop phase observed."""

    start: float
    completions: list  # response arrival times, in arrival order
    responses: list  # (index, response), in arrival order
    window: tuple  # as in OpenResult

    @property
    def elapsed(self) -> float:
        return self.completions[-1] - self.start if self.completions else 0.0


async def open_loop(pipe: Pipeline, bodies: list[str], rate: float) -> OpenResult:
    """Send *bodies* at *rate* per second, round-robin over the connections."""
    n = len(bodies)
    latencies: list = [None] * n
    responses: list = [None] * n
    lags = [0.0] * n
    due = [0.0] * n
    loop = asyncio.get_running_loop()
    all_done = loop.create_future()
    completed = 0

    def receiver(i: int):
        def on_response(response: dict, t: float) -> None:
            nonlocal completed
            latencies[i] = t - due[i]
            responses[i] = response
            completed += 1
            if completed == n and not all_done.done():
                all_done.set_result(None)

        return on_response

    start = time.perf_counter() + 0.01
    for i, body in enumerate(bodies):
        due[i] = start + i / rate
        wait = due[i] - time.perf_counter()
        if wait > 0:
            await asyncio.sleep(wait)
        lags[i] = time.perf_counter() - due[i]
        pipe.send(i % pipe.connections, body, receiver(i))
    end = start + n / rate
    wait = end - time.perf_counter()
    if wait > 0:
        await asyncio.sleep(wait)
    trail_s = max(0.0, (n - completed) / rate)
    if n:
        try:
            await asyncio.wait_for(asyncio.shield(all_done), PATIENCE_S)
        except asyncio.TimeoutError:
            pass
    finished = max(
        (d + t for d, t in zip(due, latencies) if t is not None), default=end
    )
    return OpenResult(due, latencies, lags, responses, trail_s, (start, finished))


async def closed_loop(
    pipe: Pipeline, bodies: list[str], depth: int = CLOSED_DEPTH
) -> ClosedResult:
    """Send every body, keeping *depth* outstanding on each connection."""
    loop = asyncio.get_running_loop()
    done = loop.create_future()
    completions: list = []
    responses: list = []
    issued = 0

    def issue(conn: int) -> None:
        nonlocal issued
        if issued >= len(bodies):
            return
        index = issued
        issued += 1

        def on_response(response: dict, t: float) -> None:
            completions.append(t)
            responses.append((index, response))
            issue(conn)
            if len(responses) == len(bodies) and not done.done():
                done.set_result(None)

        pipe.send(conn, bodies[index], on_response)

    start = time.perf_counter()
    for _ in range(depth):
        for conn in range(pipe.connections):
            issue(conn)
    if bodies:
        await asyncio.wait_for(asyncio.shield(done), PATIENCE_S + len(bodies) / 10.0)
    end = completions[-1] if completions else start
    return ClosedResult(start, completions, responses, (start, end))
