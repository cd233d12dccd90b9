"""The server under test as a subprocess, and the load that drives it.

One asyncio loop in the benchmark process drives at most ``CONNECTIONS``
keep-alive connections (``nproc`` on the reference box), so the
generator never outnumbers the cores.  Open-loop requests are timed from
the moment they were due, so a stall also charges the requests queued
behind it; closed-loop requests are timed from when they were sent.
Every response is checked against the reference answers as it arrives.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import random
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.obs.export import parse_prometheus_text
from repro.serve.client import AsyncServeClient, ServeClient
from repro.serve.protocol import decode_batch_response, distance_from_json

CONNECTIONS = 2


class ServerProcess:
    """``sief serve --workers 1`` on an ephemeral port, stopped by SIGTERM."""

    def __init__(self, store: Path, cache_cases: int, env: dict, log: Path):
        # --cache-cases only matters for a .siefseg store; npz stores ignore it.
        self.cmd = [
            sys.executable, "-m", "repro.cli", "serve", str(store),
            "--workers", "1", "--port", "0", "--cache-cases", str(cache_cases),
        ]
        self.env = env
        self.log_path = log
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, timeout: float = 60.0) -> None:
        """Spawn and return once ``/healthz`` has answered 200."""
        with open(self.log_path, "ab") as log:  # the child keeps its own fd
            self.proc = subprocess.Popen(
                self.cmd, stdout=subprocess.PIPE, stderr=log, env=self.env
            )
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout):
                raise RuntimeError(f"server did not start within {timeout}s")
        line = self.proc.stdout.readline().decode()
        if not line.startswith("serving on "):
            raise RuntimeError(
                f"server failed to start (see {self.log_path}): {line!r}"
            )
        self.host, _, port = line.split()[-1].rpartition(":")
        self.port = int(port)
        with ServeClient(self.host, self.port, timeout=timeout) as client:
            client.healthz()

    def metrics(self) -> dict:
        with ServeClient(self.host, self.port) as client:
            return parse_prometheus_text(client.metrics_text())

    def stop(self) -> Optional[int]:
        """Graceful drain; returns the exit code (0 after a clean drain)."""
        proc, self.proc = self.proc, None
        if proc is None:
            return None
        try:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                return proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                return proc.wait()
        finally:
            proc.stdout.close()


class Sample:
    """One request: when it was due, sent and answered, and its verdict."""

    __slots__ = ("due", "sent", "end", "status", "ok", "debug")

    def __init__(self, due: float) -> None:
        self.due = due
        self.sent = self.end = due
        self.status = 0  # HTTP status; 0 = transport error
        self.ok = False
        self.debug: Optional[dict] = None

    @property
    def latency(self) -> float:
        return self.end - self.due

    @property
    def wall(self) -> float:
        return self.end - self.sent


async def _send(client: AsyncServeClient, req, route: str, debug: bool, sample: Sample):
    """Send one request, verify the answer bit for bit, fill ``sample``."""
    path = route + "?debug=1" if debug else route
    ctype = "application/json" if route == "/dist" else "application/octet-stream"
    sample.sent = time.perf_counter()
    try:
        status, headers, data = await client.request("POST", path, req.body, ctype)
    except (OSError, asyncio.IncompleteReadError, ValueError):
        sample.end = time.perf_counter()
        await client.close()  # reconnect on next use
        return
    sample.end = time.perf_counter()
    sample.status = status
    if status != 200:
        return
    try:  # a malformed answer is a wrong answer
        if route == "/dist":
            doc = json.loads(data)
            sample.ok = distance_from_json(doc["distance"]) == req.expect[0]
            if debug:
                sample.debug = doc["debug"]
        else:
            sample.ok = decode_batch_response(data).tobytes() == req.expect.tobytes()
            if debug:
                sample.debug = json.loads(headers["x-sief-debug"])
    except (ValueError, KeyError, TypeError):
        sample.ok = False


class LoadGenerator:
    """Cycles through one request pool over a fixed set of connections."""

    def __init__(self, host: str, port: int, pool, route: str) -> None:
        self.host, self.port = host, port
        self.pool = pool
        self.route = route
        self._next = itertools.count()
        self.clients: List[AsyncServeClient] = []

    async def __aenter__(self) -> "LoadGenerator":
        for _ in range(CONNECTIONS):
            client = AsyncServeClient(self.host, self.port)
            await client.connect()
            self.clients.append(client)
        return self

    async def __aexit__(self, *exc) -> None:
        for client in self.clients:
            await client.close()

    def _take(self):
        return self.pool[next(self._next) % len(self.pool)]

    async def open_loop(self, rate: float, seconds: float, seed: int, debug_every: int = 0):
        """Poisson arrivals at ``rate`` for ``seconds``.

        Returns ``(samples, lateness)``: lateness is how long after its due
        time each request's task started, i.e. how far the generator
        itself fell behind the schedule.
        """
        rng = random.Random(seed)
        offsets, t = [], rng.expovariate(rate)
        while t < seconds:
            offsets.append(t)
            t += rng.expovariate(rate)
        idle: asyncio.Queue = asyncio.Queue()
        for client in self.clients:
            idle.put_nowait(client)
        samples = [Sample(0.0) for _ in offsets]
        lateness = [0.0] * len(offsets)

        async def fire(i: int, req) -> None:
            lateness[i] = time.perf_counter() - samples[i].due
            client = await idle.get()
            try:
                debug = bool(debug_every) and i % debug_every == 1
                await _send(client, req, self.route, debug, samples[i])
            finally:
                idle.put_nowait(client)

        start = time.perf_counter() + 0.01
        tasks = []
        for i, off in enumerate(offsets):
            due = start + off
            samples[i].due = due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            tasks.append(asyncio.ensure_future(fire(i, self._take())))
        await asyncio.gather(*tasks)
        return samples, lateness

    async def closed_loop(self, seconds: float, debug_every: int = 0) -> List[Sample]:
        """Each connection sends its next request when the last returns."""
        deadline = time.perf_counter() + seconds
        samples: List[Sample] = []

        async def worker(client: AsyncServeClient) -> None:
            while time.perf_counter() < deadline:
                i = len(samples)
                sample = Sample(time.perf_counter())
                samples.append(sample)
                debug = bool(debug_every) and i % debug_every == 1
                await _send(client, self._take(), self.route, debug, sample)

        await asyncio.gather(*(worker(c) for c in self.clients))
        return samples
