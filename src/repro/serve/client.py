"""Clients for the serving protocol.

* :class:`ServeClient` — synchronous, over :mod:`http.client` with one
  keep-alive connection.  The conformance adapter and the test suites
  drive the server with it.
* :class:`AsyncServeClient` — asyncio, raw keep-alive HTTP over
  ``asyncio.open_connection``.  The end-to-end benchmark's load
  generator (``benchmarks/e2e/loadgen.py``) keeps one per connection;
  each instance owns one connection and must only be used from one task
  at a time.

Both speak every endpoint: JSON single/batch, the binary frame, and the
operational GETs.  Server-side errors surface as
:class:`ServeClientError` carrying the HTTP status and decoded message.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serve.protocol import (
    distance_from_json,
    encode_batch_request,
    decode_batch_response,
)

Edge = Tuple[int, int]
Pair = Tuple[int, int]


class ServeClientError(Exception):
    """A non-2xx answer from the server."""

    def __init__(self, status: int, message: str, retry_after: Optional[str] = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        self.retry_after = retry_after


def _extract_error(status: int, body: bytes, retry_after=None) -> ServeClientError:
    try:
        message = json.loads(body).get("error", body.decode("utf-8", "replace"))
    except (json.JSONDecodeError, UnicodeDecodeError, AttributeError):
        message = body.decode("utf-8", "replace")
    return ServeClientError(status, message, retry_after)


class ServeClient:
    """Synchronous keep-alive client (one connection, not thread-safe)."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- raw request -------------------------------------------------------

    def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
        trace_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        """One request/response; returns (status, headers, body).

        ``trace_id`` rides in an ``X-Trace-Id`` header; the server
        echoes it back (generated otherwise) on every response.

        Retries once on a stale keep-alive connection (the server may
        have closed it between requests), never on anything else.
        """
        headers = {"Content-Type": content_type} if body is not None else {}
        if trace_id is not None:
            headers["X-Trace-Id"] = trace_id
        for attempt in (0, 1):
            try:
                self._conn.request(method, path, body=body, headers=headers)
                resp = self._conn.getresponse()
                payload = resp.read()
                return (
                    resp.status,
                    {k.lower(): v for k, v in resp.getheaders()},
                    payload,
                )
            except (
                http.client.NotConnected,
                http.client.CannotSendRequest,
                http.client.BadStatusLine,
                ConnectionError,
                BrokenPipeError,
            ):
                self._conn.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _json(
        self,
        method: str,
        path: str,
        doc: Optional[dict] = None,
        trace_id: Optional[str] = None,
    ) -> dict:
        body = None if doc is None else json.dumps(doc).encode()
        status, headers, payload = self.request(
            method, path, body, trace_id=trace_id
        )
        if status != 200:
            raise _extract_error(status, payload, headers.get("retry-after"))
        return json.loads(payload)

    # -- endpoints ---------------------------------------------------------

    def healthz(self) -> dict:
        return self._json("GET", "/healthz")

    def debug_requests(self) -> dict:
        """The ``/debug/requests`` document (in-flight + recent)."""
        return self._json("GET", "/debug/requests")

    def debug_slow(self) -> dict:
        """The ``/debug/slow`` document (slowest-N requests)."""
        return self._json("GET", "/debug/slow")

    def metrics_text(self) -> str:
        status, _headers, payload = self.request("GET", "/metrics")
        if status != 200:
            raise _extract_error(status, payload)
        return payload.decode()

    def failures(self) -> List[Edge]:
        doc = self._json("GET", "/failures")
        return [(u, v) for u, v in doc["edges"]]

    def distance(
        self,
        s: int,
        t: int,
        edge: Edge,
        trace_id: Optional[str] = None,
        debug: bool = False,
    ) -> float:
        doc = self.distance_ex(s, t, edge, trace_id=trace_id, debug=debug)
        return distance_from_json(doc["distance"])

    def distance_ex(
        self,
        s: int,
        t: int,
        edge: Edge,
        trace_id: Optional[str] = None,
        debug: bool = False,
    ) -> dict:
        """Full ``/dist`` response document (with ``debug`` when asked)."""
        return self._json(
            "POST",
            "/dist?debug=1" if debug else "/dist",
            {"s": s, "t": t, "edge": [edge[0], edge[1]]},
            trace_id=trace_id,
        )

    def batch(
        self,
        edge: Edge,
        pairs: Sequence[Pair],
        trace_id: Optional[str] = None,
        debug: bool = False,
    ) -> List[float]:
        doc = self.batch_ex(edge, pairs, trace_id=trace_id, debug=debug)
        return [distance_from_json(d) for d in doc["distances"]]

    def batch_ex(
        self,
        edge: Edge,
        pairs: Sequence[Pair],
        trace_id: Optional[str] = None,
        debug: bool = False,
    ) -> dict:
        """Full ``/batch`` response document (with ``debug`` when asked)."""
        return self._json(
            "POST",
            "/batch?debug=1" if debug else "/batch",
            {
                "edge": [edge[0], edge[1]],
                "pairs": [[int(s), int(t)] for s, t in pairs],
            },
            trace_id=trace_id,
        )

    def batch_binary(
        self,
        edge: Edge,
        pairs: Sequence[Pair],
        trace_id: Optional[str] = None,
        debug: bool = False,
    ) -> np.ndarray:
        distances, _headers = self.batch_binary_ex(
            edge, pairs, trace_id=trace_id, debug=debug
        )
        return distances

    def batch_binary_ex(
        self,
        edge: Edge,
        pairs: Sequence[Pair],
        trace_id: Optional[str] = None,
        debug: bool = False,
    ) -> Tuple[np.ndarray, Dict[str, str]]:
        """Binary batch answer plus response headers.

        A 32-hex-char ``trace_id`` travels in the frame trailer (the
        strongest form — it survives proxies that strip headers); any
        other valid token falls back to the ``X-Trace-Id`` header.  With
        ``debug=True`` the stage decomposition comes back JSON-encoded
        in the ``x-sief-debug`` response header.
        """
        frame_trace = header_trace = None
        if trace_id is not None:
            try:
                frame_trace = trace_id if len(bytes.fromhex(trace_id)) == 16 else None
            except ValueError:
                frame_trace = None
            if frame_trace is None:
                header_trace = trace_id
        frame = encode_batch_request(edge, pairs, trace_id=frame_trace)
        status, headers, payload = self.request(
            "POST",
            "/batch.bin?debug=1" if debug else "/batch.bin",
            frame,
            content_type="application/octet-stream",
            trace_id=header_trace,
        )
        if status != 200:
            raise _extract_error(status, payload, headers.get("retry-after"))
        return decode_batch_response(payload), headers


class AsyncServeClient:
    """Asyncio keep-alive client (one connection, one task at a time)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncServeClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        content_type: str = "application/json",
        trace_id: Optional[str] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        if self._writer is None:
            await self.connect()
        assert self._reader is not None and self._writer is not None
        payload = body or b""
        trace_header = (
            f"X-Trace-Id: {trace_id}\r\n" if trace_id is not None else ""
        )
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{trace_header}"
            "\r\n"
        ).encode("latin-1")
        self._writer.write(head + payload)
        await self._writer.drain()

        status_line = await self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        data = await self._reader.readexactly(length) if length else b""
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, headers, data

    async def _json(self, method: str, path: str, doc: Optional[dict] = None) -> dict:
        body = None if doc is None else json.dumps(doc).encode()
        status, headers, payload = await self.request(method, path, body)
        if status != 200:
            raise _extract_error(status, payload, headers.get("retry-after"))
        return json.loads(payload)

    async def healthz(self) -> dict:
        return await self._json("GET", "/healthz")

    async def distance(self, s: int, t: int, edge: Edge) -> float:
        doc = await self._json(
            "POST", "/dist", {"s": s, "t": t, "edge": [edge[0], edge[1]]}
        )
        return distance_from_json(doc["distance"])

    async def batch(self, edge: Edge, pairs: Sequence[Pair]) -> List[float]:
        doc = await self._json(
            "POST",
            "/batch",
            {
                "edge": [edge[0], edge[1]],
                "pairs": [[int(s), int(t)] for s, t in pairs],
            },
        )
        return [distance_from_json(d) for d in doc["distances"]]

    async def batch_binary(self, edge: Edge, pairs: Sequence[Pair]) -> np.ndarray:
        frame = encode_batch_request(edge, pairs)
        status, headers, payload = await self.request(
            "POST", "/batch.bin", frame, content_type="application/octet-stream"
        )
        if status != 200:
            raise _extract_error(status, payload, headers.get("retry-after"))
        return decode_batch_response(payload)


def distances_equal(a: float, b: float) -> bool:
    """Equality that treats two infinities as equal (JSON round-trips)."""
    if math.isinf(a) and math.isinf(b):
        return True
    return a == b
