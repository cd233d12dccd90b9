"""Per-layer figures for a traced run, from public entry points only.

Four sources, all outside ``src/``:

* the server's own stage decomposition (``?debug=1`` on JSON routes, the
  ``X-SIEF-Debug`` header on ``/batch.bin``) for every second request;
* ``/metrics`` scraped before and after the traced phase;
* in-process timing of public functions (``batch_query``, ``load_case``,
  the wire codec) on the same store file and request stream, each call
  inside a span of the benchmark's own
  :class:`~repro.obs.trace.TraceRecorder`, with the engine's own
  ``sief.query.*`` and ``label.query.*`` series read from a registry
  installed around the calls;
* the traced ``build_store.py`` run (``sief.build.*``, ``sief.ooc.*``).

``LAYER_MAP`` records, for each per-layer metric, the end-to-end metric
it should move and on which workload.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Sequence

import numpy as np

from repro.core.lazy import PagedSIEFIndex
from repro.core.query import QueryCase
from repro.core.segstore import SegmentStore
from repro.failures.model import cross_side_query_triples
from repro.obs import hooks
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import SpanRecord
from repro.serve.protocol import (
    decode_batch_request,
    decode_batch_response,
    encode_batch_request,
    encode_batch_response,
)

import workloads as wl

LAYER_MAP: Dict[str, str] = {
    "serve.server.residual_ms": "p50_ms, ops_per_s on dist-open; p50_ms on paged-zipf",
    "serve.server.parse_ms": "p50_ms, ops_per_s on dist-open; p50_ms on paged-zipf",
    "serve.server.serialize_ms": "p50_ms, ops_per_s on dist-open; p50_ms on paged-zipf",
    "serve.batcher.queue_ms": "p50_ms, p90_ms, ops_per_s on dist-open (about 0 elsewhere)",
    "serve.batcher.queue_p90_ms": "p50_ms, p90_ms, ops_per_s on dist-open (about 0 elsewhere)",
    "serve.batcher.batch_ms": "p50_ms on dist-open and paged-zipf",
    "serve.batcher.deadline_flush_frac": "p50_ms on dist-open and paged-zipf",
    "serve.batcher.pairs_per_flush": "ops_per_s on dist-open and paged-zipf",
    "serve.batcher.groups_per_flush": "ops_per_s on dist-open and paged-zipf",
    "core.query.compute_ms": "p50_ms, ops_per_s on case4-batch",
    "core.query.compute_p99_ms": "p90_ms on case4-batch",
    "core.query.case4_pairs_per_s": "ops_per_s, p90_ms on case4-batch",
    "core.query.case123_pairs_per_s": "ops_per_s on paged-zipf",
    "core.query.hubs_per_case4_pair": "ops_per_s on case4-batch (exact count)",
    "core.query.call_us": "p50_ms on dist-open",
    "core.query.case4_share": "workload check: 1.0 on case4-batch, about 0 elsewhere",
    "labeling.query.pairs_per_s": "ops_per_s on case4-batch and paged-zipf",
    "serve.protocol.codec_us": "p50_ms on paged-zipf (predicted negligible)",
    "core.lazy.miss_frac": "p90_ms, ops_per_s on paged-zipf (exact replay)",
    "core.lazy.pages_faulted_per_request": "p90_ms, ops_per_s on paged-zipf",
    "core.segstore.load_case_us": "p90_ms, ops_per_s on paged-zipf",
    "core.segstore.spill_s": "ops_per_s on build-spill; setup_s on paged-zipf",
    "core.segstore.bytes_written": "store_bytes_per_case on build-spill (exact)",
    "labeling.pll.build_s": "setup_s on serve workloads; build_s (reported) on build-spill",
    "core.builder.identify_s": "ops_per_s on build-spill; setup_s elsewhere",
    "core.builder.affected_per_case": "ops_per_s on build-spill; setup_s elsewhere",
    "core.batched.relabel_s": "ops_per_s, p50_ms on build-spill; setup_s elsewhere",
    "core.batched.relabel_expanded": "ops_per_s on build-spill (exact count)",
    "obs.trace_overhead_frac": "serve: p50 of ?debug=1 requests over plain ones sent beside "
    "them, minus 1; build-spill: traced over untraced build_s, minus 1",
    "loadgen.cpu_frac": "generator headroom; must stay well below 1",
}

STAGES = ("parse", "queue", "batch", "compute", "serialize")
PROBE_PAIRS = 2048
MIN_PROBE = 256
HUB_PAIRS = 256  # Case 4 pairs answered one by one to count their hubs
CALLS = 1000


def _ms(x: float) -> float:
    return x * 1e3


def server_layers(samples, before: dict, after: dict):
    """Stage figures from debug responses plus batcher ``/metrics`` deltas.

    Stage metrics are means, so residual plus the stages add up to the
    mean client wall time exactly (the server reports stages rounded to
    whole microseconds, which would also make medians repeat verbatim).
    Returns ``(metrics, extras)``.  Raises ``RuntimeError`` when a
    request's server stages add up to more than its client wall time —
    the decomposition would not reconcile.
    """
    traced = [s for s in samples if s.ok and s.debug is not None]
    if not traced:
        raise RuntimeError("no traced responses carried a stage decomposition")
    stage = {k: np.array([s.debug["stages"].get(k, 0.0) for s in traced]) for k in STAGES}
    wall = np.array([s.wall for s in traced])
    total = sum(stage.values())
    over = int(np.sum(total > wall))
    if over:
        raise RuntimeError(f"{over} requests: server stages exceed client wall")
    residual = wall - total
    shares = {k: float(v.sum() / wall.sum()) for k, v in stage.items()}
    shares["residual"] = 1.0 - sum(shares.values())

    def delta(kind: str, name: str):
        b = before[kind].get(name)
        a = after[kind].get(name)
        if a is None:
            return None
        if kind == "histograms":
            return (a["sum"] - (b["sum"] if b else 0.0), a["count"] - (b["count"] if b else 0))
        return a - (b or 0.0)

    flushes = delta("counters", "serve_batch_flushes") or 0.0
    deadline = delta("counters", "serve_batch_flush_deadline") or 0.0
    size = delta("histograms", "serve_batch_size")
    groups = delta("histograms", "serve_batch_groups")
    hits = delta("counters", "sief_lazy_cache_hits")
    misses = delta("counters", "sief_lazy_cache_misses")
    out = {
        "serve.server.residual_ms": _ms(float(residual.mean())),
        "serve.server.parse_ms": _ms(float(stage["parse"].mean())),
        "serve.server.serialize_ms": _ms(float(stage["serialize"].mean())),
        "serve.batcher.queue_ms": _ms(float(stage["queue"].mean())),
        "serve.batcher.queue_p90_ms": _ms(float(np.quantile(stage["queue"], 0.9))),
        "serve.batcher.batch_ms": _ms(float(stage["batch"].mean())),
        "serve.batcher.deadline_flush_frac": deadline / flushes if flushes else 0.0,
        "serve.batcher.pairs_per_flush": size[0] / size[1] if size and size[1] else 0.0,
        "serve.batcher.groups_per_flush": groups[0] / groups[1] if groups and groups[1] else 0.0,
        "core.query.compute_ms": _ms(float(stage["compute"].mean())),
        "core.query.compute_p99_ms": _ms(float(np.quantile(stage["compute"], 0.99))),
        "core.lazy.pages_faulted_per_request": float(
            np.mean([s.debug.get("pages_faulted", 0) for s in traced])
        ),
    }
    extra = {
        "traced_requests": len(traced),
        "wall_shares": shares,
        "server_miss_frac": misses / (hits + misses) if misses is not None and hits + misses else None,
    }
    return out, extra


# -- in-process replay ------------------------------------------------------


def _group(pairs_by_edge: Dict[tuple, List[np.ndarray]]) -> Dict[tuple, np.ndarray]:
    return {e: np.concatenate(v) for e, v in pairs_by_edge.items() if v}


def _limit(groups: Dict[tuple, np.ndarray], cap: int) -> Dict[tuple, np.ndarray]:
    out, left = {}, cap
    for e, p in groups.items():
        if left <= 0:
            break
        out[e] = p[:left]
        left -= len(out[e])
    return out


def _size(groups: Dict[tuple, np.ndarray]) -> int:
    return sum(map(len, groups.values()))


def _rate(tracer, name: str, fn, groups: Dict[tuple, np.ndarray]) -> float:
    """Pairs per second of ``fn(edge, pairs)`` over every group."""
    total, spent = 0, 0.0
    for edge, pairs in groups.items():
        t0 = time.perf_counter()
        with tracer.span(name):
            fn(edge, pairs)
        spent += time.perf_counter() - t0
        total += len(pairs)
    return total / spent


def _split_stream(engine, stream, reg: MetricsRegistry):
    """Each request's pairs, answered by ``batch_query`` and sorted by the
    engine's own ``sief.query.cross_side`` count: all Case 4, or none."""
    cross = reg.counter("sief.query.cross_side")
    c4: Dict[tuple, list] = {}
    c123: Dict[tuple, list] = {}
    for req in stream:
        before = cross.value
        engine.batch_query(req.edge, req.pairs)
        n = cross.value - before
        if n == len(req.pairs):
            c4.setdefault(req.edge, []).append(req.pairs)
        elif n == 0:
            c123.setdefault(req.edge, []).append(req.pairs)
    return _group(c4), _group(c123)


def _case123_probe(engine, cases, seed: int) -> Dict[tuple, np.ndarray]:
    """Seeded uniform pairs per case, keeping those ``distance_with_case``
    does not put in Case 4."""
    nrng = np.random.default_rng(seed + 3)
    n = engine.index.labeling.num_vertices
    out = {}
    for edge in cases:
        pairs = nrng.integers(0, n, (PROBE_PAIRS // len(cases) + 1, 2))
        keep = [
            engine.distance_with_case(int(s), int(t), edge)[1] is not QueryCase.CROSS_SIDES
            for s, t in pairs
        ]
        out[edge] = pairs[np.asarray(keep, dtype=bool)]
    return out


def replay(w, engine, cases_view, stream, seg_path, cases, seed: int, tracer) -> dict:
    """In-process layer figures on the served store and request stream.

    The engine counts its own work: the calls that classify and rate
    pairs run under a registry installed with ``obs.hooks``, so the Case 4
    share, the hubs per Case 4 pair and the label-join rate come from the
    engine's ``sief.query.*`` and ``label.query.*`` series, not from a
    second copy of its classification.
    """
    split = MetricsRegistry()
    with hooks.installed(split, tracer), tracer.span("bench.replay_stream"):
        p4, p123 = _split_stream(engine, stream, split)
    out = {
        "core.query.case4_share": split.counter("sief.query.cross_side").value
        / split.counter("sief.query.batch_pairs").value,
    }
    # A stream with too few pairs of one kind (dist-open has almost no
    # Case 4, case4-batch has nothing else) is probed with seeded pairs.
    if _size(p4) < MIN_PROBE:
        p4 = wl.group_triples(
            (q.s, q.t, q.edge)
            for q in cross_side_query_triples(cases_view, PROBE_PAIRS, seed=seed + 3)
        )
    if _size(p123) < MIN_PROBE:
        p123 = _case123_probe(engine, cases, seed)
    p4, p123 = _limit(p4, 1 << 15), _limit(p123, 1 << 17)

    timed = MetricsRegistry()
    with hooks.installed(timed, tracer):
        out["core.query.case4_pairs_per_s"] = _rate(
            tracer, "bench.batch_query.case4", engine.batch_query, p4
        )
        out["core.query.case123_pairs_per_s"] = _rate(
            tracer, "bench.batch_query.case123", engine.batch_query, p123
        )
    if timed.counter("sief.query.cross_side").value != _size(p4):
        raise RuntimeError("the Case 4 probe holds pairs of other cases")
    # Every batch_dist_query the engine made for those pairs: the Case 1-3
    # pairs and the (low, hub) pairs that Case 4 expands into.
    out["labeling.query.pairs_per_s"] = (
        timed.counter("label.query.batch_pairs").value
        / timed.histograms["label.query.batch_seconds"].sum
    )

    # The scalar path records each Case 4 pair's hub count; the batch
    # path does not.  It is slow, so it answers a sample from every edge.
    per_edge = max(1, HUB_PAIRS // len(p4))
    hubs = MetricsRegistry()
    with hooks.installed(hubs):
        for edge, pairs in p4.items():
            for s, t in pairs[:per_edge]:
                engine.distance(int(s), int(t), edge)
    case4_hubs = hubs.histograms["sief.query.case4_hubs"]
    out["core.query.hubs_per_case4_pair"] = case4_hubs.sum / case4_hubs.count

    singles = [(req.edge, req.pairs[:1]) for req in stream]
    calls = []
    for k in range(CALLS):
        edge, pair = singles[k % len(singles)]
        t0 = time.perf_counter()
        engine.batch_query(edge, pair)
        calls.append(time.perf_counter() - t0)
    out["core.query.call_us"] = float(np.median(calls)) * 1e6

    out["serve.protocol.codec_us"] = float(np.median([_codec(w, req) for req in stream[:256]])) * 1e6

    store = SegmentStore(seg_path)
    loads = []
    for edge in store.case_edges()[:256] * 3:
        t0 = time.perf_counter()
        with tracer.span("bench.load_case"):
            store.load_case(*edge)
        loads.append(time.perf_counter() - t0)
    out["core.segstore.load_case_us"] = float(np.median(loads)) * 1e6

    paged = PagedSIEFIndex(store, capacity=w.cache_cases)
    for req in stream:
        paged.supplement(*req.edge)
    warm = paged.misses
    for req in stream:
        paged.supplement(*req.edge)
    out["core.lazy.miss_frac"] = (paged.misses - warm) / len(stream)
    return out


def _codec(w, req) -> float:
    """One request's wire work on both ends: encode, decode, answer, decode."""
    answer = req.expect
    t0 = time.perf_counter()
    if w.route == "/dist":
        s, t = (int(x) for x in req.pairs[0])
        body = json.dumps({"s": s, "t": t, "edge": list(req.edge)}).encode()
        json.loads(body)
        reply = json.dumps({"s": s, "t": t, "edge": list(req.edge), "distance": float(answer[0])})
        json.loads(reply)
    else:
        frame = encode_batch_request(req.edge, req.pairs)
        decode_batch_request(frame)
        decode_batch_response(encode_batch_response(answer))
    return time.perf_counter() - t0


def build_layers(doc: dict) -> dict:
    """Build-layer metrics from a traced ``build_store.py`` report."""
    layers = doc["layers"]
    return {
        "labeling.pll.build_s": doc["pll_s"],
        "core.builder.identify_s": layers["identify_s"],
        "core.builder.affected_per_case": layers["affected_per_case"],
        "core.batched.relabel_s": layers["relabel_s"],
        "core.batched.relabel_expanded": layers["relabel_expanded"],
        "core.segstore.spill_s": layers["spill_s"],
        "core.segstore.bytes_written": layers["bytes_written"],
    }


def span_records(spans: Sequence[list]) -> List[SpanRecord]:
    """``build_store.py``'s span tuples back as ``SpanRecord`` objects."""
    return [SpanRecord(name, depth, seconds, start) for name, depth, seconds, start in spans]
