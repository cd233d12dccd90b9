"""Micro-batching queue: coalesce in-flight requests into ``batch_query``.

The engine's vectorized ``batch_query`` amortizes its per-call cost over
every pair in the call — but only when someone hands it batches.  A
serving daemon gets its batches from concurrency:
every request (single pair or client-side batch) enqueues its pairs with
a future, and one flusher task drains the queue into as few
:meth:`~repro.core.query.SIEFQueryEngine.batch_query` calls as there are
distinct failed edges in the window.

Flush policy — whichever comes first:

* **size**: total queued pairs reached ``max_batch``;
* **deadline**: the oldest queued item has waited ``max_delay`` seconds;
* **drain**: :meth:`MicroBatcher.close` flushes whatever remains.

Backpressure is bounded and explicit: when accepting a request would
push the queue past ``queue_limit`` pairs, :meth:`submit` raises
:class:`LoadShedError` and the server answers 429 + ``Retry-After``
instead of letting latency collapse for everyone already queued.

Single-threaded by design — everything here runs on the server's event
loop, so no locks.  The engine call itself is synchronous CPU work; at
micro-batch sizes that is the point (amortization), and the event loop
resumes between flushes.
"""

from __future__ import annotations

import asyncio
import time
from contextlib import contextmanager
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.obs.context import RequestContext, scope
from repro.obs.events import EventLog
from repro.obs.metrics import SIZE_EDGES, MetricsRegistry

Edge = Tuple[int, int]


class LoadShedError(Exception):
    """The queue is full; the caller should answer 429 + Retry-After."""

    def __init__(self, pending: int, limit: int) -> None:
        super().__init__(
            f"micro-batch queue full ({pending} pairs pending, "
            f"limit {limit})"
        )
        self.pending = pending
        self.limit = limit


@contextmanager
def _noop():
    yield


class _Item(NamedTuple):
    edge: Edge
    pairs: np.ndarray  # (k, 2) int64
    future: "asyncio.Future[np.ndarray]"
    enqueued: float
    ctx: Optional[RequestContext] = None


class MicroBatcher:
    """The coalescing queue in front of one query engine."""

    def __init__(
        self,
        engine,
        max_batch: int = 512,
        max_delay: float = 0.002,
        queue_limit: int = 8192,
        registry: Optional[MetricsRegistry] = None,
        clock=time.monotonic,
        events: Optional[EventLog] = None,
        tracer=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        self.engine = engine
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.queue_limit = queue_limit
        self.registry = registry if registry is not None else MetricsRegistry()
        self.events = events
        self.tracer = tracer
        self._clock = clock
        self._items: List[_Item] = []
        self._pending_pairs = 0
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the flusher task on the running loop (idempotent)."""
        if self._task is None:
            self._wake = asyncio.Event()
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="sief-microbatcher"
            )

    async def close(self) -> None:
        """Stop accepting, flush everything queued, join the flusher."""
        self._closing = True
        if self._task is not None:
            assert self._wake is not None
            self._wake.set()
            await self._task
            self._task = None

    @property
    def pending_pairs(self) -> int:
        """Pairs currently queued (the load-shed watermark)."""
        return self._pending_pairs

    # -- intake ------------------------------------------------------------

    def submit(
        self,
        edge: Edge,
        pairs: np.ndarray,
        ctx: Optional[RequestContext] = None,
    ) -> "asyncio.Future[np.ndarray]":
        """Enqueue pairs for one failed edge; resolves to a float64 array.

        ``ctx``, when given, receives the request's share of the flush
        timing (``queue``/``batch``/``compute`` stages) and any page
        faults its flush triggers.

        Raises :class:`LoadShedError` when the queue is at capacity and
        ``RuntimeError`` after :meth:`close` (the server answers 503).
        """
        if self._closing or self._task is None:
            raise RuntimeError("micro-batcher is closed")
        k = len(pairs)
        if self._pending_pairs + k > self.queue_limit:
            self.registry.counter("serve.queue.shed").inc()
            raise LoadShedError(self._pending_pairs, self.queue_limit)
        future: "asyncio.Future[np.ndarray]" = (
            asyncio.get_running_loop().create_future()
        )
        self._items.append(_Item(edge, pairs, future, self._clock(), ctx))
        self._pending_pairs += k
        self.registry.gauge("serve.queue.depth").set(self._pending_pairs)
        assert self._wake is not None
        self._wake.set()
        return future

    # -- flusher -----------------------------------------------------------

    async def _run(self) -> None:
        assert self._wake is not None
        while True:
            while not self._items and not self._closing:
                self._wake.clear()
                await self._wake.wait()
            if not self._items:
                break  # closing and drained
            cause = await self._collect_window()
            self._flush(cause)

    async def _collect_window(self) -> str:
        """Wait until a flush trigger fires; returns the cause label."""
        assert self._wake is not None
        if self._closing:
            return "drain"
        deadline = self._items[0].enqueued + self.max_delay
        while self._pending_pairs < self.max_batch:
            remaining = deadline - self._clock()
            if remaining <= 0:
                return "deadline"
            self._wake.clear()
            try:
                await asyncio.wait_for(self._wake.wait(), remaining)
            except asyncio.TimeoutError:
                return "deadline"
            if self._closing:
                return "drain"
        return "size"

    def _flush(self, cause: str) -> None:
        items, self._items = self._items, []
        total = self._pending_pairs
        self._pending_pairs = 0
        reg = self.registry
        reg.gauge("serve.queue.depth").set(0)
        reg.counter("serve.batch.flushes").inc()
        reg.counter(f"serve.batch.flush_{cause}").inc()
        reg.histogram("serve.batch.size", SIZE_EDGES).observe(total)
        reg.histogram("serve.batch.items", SIZE_EDGES).observe(len(items))

        groups: Dict[Edge, List[_Item]] = {}
        for item in items:
            groups.setdefault(item.edge, []).append(item)
        reg.histogram("serve.batch.groups", SIZE_EDGES).observe(len(groups))

        # Everything a request spent waiting before this flush started is
        # its "queue" stage; time inside the flush before *its* group's
        # engine call is "batch"; the engine call itself is "compute".
        # Both endpoints of each duration come from the batcher's clock,
        # so the stages stay disjoint and well-defined.
        flush_start = self._clock()
        for it in items:
            if it.ctx is not None:
                it.ctx.add_stage("queue", flush_start - it.enqueued)
                it.ctx.meta["flush_cause"] = cause
                it.ctx.meta["flush_pairs"] = total
                it.ctx.meta["flush_groups"] = len(groups)

        span = self.tracer.span if self.tracer is not None else None
        t0 = time.perf_counter()
        with span("serve.batch.flush") if span else _noop():
            for edge, group in groups.items():
                live = [it for it in group if not it.future.cancelled()]
                if not live:
                    continue
                stacked = (
                    live[0].pairs
                    if len(live) == 1
                    else np.concatenate([it.pairs for it in live])
                )
                ctxs = tuple(
                    it.ctx for it in live if it.ctx is not None
                )
                group_start = self._clock()
                for ctx in ctxs:
                    ctx.add_stage("batch", group_start - flush_start)
                try:
                    with span("serve.batch.group") if span else _noop():
                        if ctxs:
                            with scope(*ctxs):
                                out = self.engine.batch_query(edge, stacked)
                        else:
                            out = self.engine.batch_query(edge, stacked)
                except Exception as exc:  # noqa: BLE001 - routed to callers
                    for ctx in ctxs:
                        ctx.add_stage("compute", self._clock() - group_start)
                    for it in live:
                        if not it.future.cancelled():
                            it.future.set_exception(exc)
                    continue
                for ctx in ctxs:
                    ctx.add_stage("compute", self._clock() - group_start)
                pos = 0
                for it in live:
                    k = len(it.pairs)
                    if not it.future.cancelled():
                        it.future.set_result(out[pos : pos + k])
                    pos += k
        elapsed = time.perf_counter() - t0
        reg.histogram("serve.batch.flush_seconds").observe(elapsed)

        if self.events is not None:
            trace_ids = [it.ctx.trace_id for it in items if it.ctx is not None]
            if trace_ids:
                self.events.record(
                    {
                        "event": "batch.flush",
                        "cause": cause,
                        "pairs": total,
                        "items": len(items),
                        "groups": len(groups),
                        "seconds": round(elapsed, 6),
                        "pages_faulted": sum(
                            it.ctx.pages_faulted
                            for it in items
                            if it.ctx is not None
                        ),
                        "trace_ids": trace_ids,
                    },
                    sampled=any(
                        self.events.sampled(tid) for tid in trace_ids
                    ),
                )
