"""The four workloads of the end-to-end benchmark and their inputs.

Graphs and indexed failure cases are fixed per workload (Barabási–Albert,
seed 7), so every run builds the same index.  The run's ``--seed`` picks
what varies between runs: the query stream and the oracle sample.  That
keeps ``setup_s``, ``build_s`` and ``store_bytes_per_case`` measuring the
code rather than a case sample.

case4-batch and paged-zipf are synthetic stress shapes, not the traffic
of a caller in this repository.  The ``repro.analysis`` modules ask
scalar ``engine.distance`` questions: ``vital_arc`` one ``(s, t)`` pair
under each edge of its shortest paths, ``vickrey`` every demand pair
under one edge at a time, ``resilience`` one uniform pair under one
uniform edge.  None of them picks cross-side pairs or hot edges.
case4-batch isolates the Case 4 supplemental-label path; paged-zipf a
working set larger than the paging cache.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.failures.model import cross_side_query_triples, random_query_triples
from repro.graph import generators
from repro.serve.protocol import encode_batch_request

GRAPH_SEED = 7
ATTACH = 3
PAIRS_PER_REQUEST = 512
"""Pairs per ``/batch.bin`` request: fills the server's default ``max_batch``."""
ORACLE_TRIPLES = 256
ZIPF_S = 1.0

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    vertices: int
    cases: int
    store: str  # "npz" (resident, mmap'd) or "siefseg" (segment store)
    traffic: str  # "open", "closed" or "build"
    shard_size: Optional[int] = None
    cache_cases: int = 32  # LRU size when a segment store is served or replayed
    pool: int = 0  # distinct requests generated per run (cycled)

    @property
    def route(self) -> str:
        return "/dist" if self.traffic == "open" else "/batch.bin"


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dist-open",
            "single uniform /dist pairs, open-loop Poisson at 150 and 450 "
            "qps: batcher queue and HTTP overhead dominate, the engine "
            "does not",
            vertices=2000,
            cases=16,
            store="npz",
            traffic="open",
            pool=4096,
        ),
        Workload(
            "case4-batch",
            "synthetic stress: 512 cross-side pairs per /batch.bin, closed "
            "loop; all Case 4, so engine compute dominates and the batcher "
            "never waits",
            vertices=10000,
            cases=8,
            store="npz",
            traffic="closed",
            pool=48,
        ),
        Workload(
            "paged-zipf",
            "synthetic stress: 512 uniform pairs per /batch.bin, Zipf-hot "
            "edges over 256 paged cases with a 32-case LRU; demand paging and "
            "the Case 1-3 join",
            vertices=2000,
            cases=256,
            store="siefseg",
            traffic="closed",
            pool=2048,
        ),
        Workload(
            "build-spill",
            "fresh-process PLL plus sharded build of 32 cases spilled to a "
            "segment store: the write side, dominated by RELABEL",
            vertices=10000,
            cases=32,
            store="siefseg",
            traffic="build",
            shard_size=8,
        ),
    )
}

_TINY = {
    "dist-open": dict(vertices=300, cases=4, pool=512),
    "case4-batch": dict(vertices=600, cases=4, pool=8),
    "paged-zipf": dict(vertices=300, cases=24, cache_cases=4, pool=64),
    "build-spill": dict(vertices=600, cases=8, shard_size=4),
}


def get_workload(name: str, tiny: bool = False) -> Workload:
    """The named workload, or its smoke-test-sized variant."""
    w = WORKLOADS[name]
    return replace(w, **_TINY[name]) if tiny else w


# -- the fixed index --------------------------------------------------------


def make_graph(w: Workload):
    return generators.barabasi_albert(w.vertices, ATTACH, seed=GRAPH_SEED)


def case_edges(graph, w: Workload) -> List[Edge]:
    """The workload's indexed failure cases (fixed, canonical order)."""
    return sorted(random.Random(GRAPH_SEED).sample(sorted(graph.edges()), w.cases))


def store_path(root: Path, w: Workload) -> Path:
    return root / ("index.npz" if w.store == "npz" else "index.siefseg")


def store_bytes(path: Path) -> int:
    if path.is_dir():
        return sum(p.stat().st_size for p in path.iterdir())
    return path.stat().st_size


# -- request streams --------------------------------------------------------


@dataclass
class Request:
    edge: Edge
    pairs: np.ndarray  # (k, 2) int64
    body: bytes
    expect: Optional[np.ndarray] = None  # reference answers, float64


def _json_dist_body(s: int, t: int, edge: Edge) -> bytes:
    return (
        f'{{"s": {s}, "t": {t}, "edge": [{edge[0]}, {edge[1]}]}}'
    ).encode()


def batch_request(edge: Edge, pairs: np.ndarray) -> Request:
    pairs = np.ascontiguousarray(pairs, dtype=np.int64)
    return Request(edge, pairs, encode_batch_request(edge, pairs))


def make_stream(w: Workload, graph, cases: Sequence[Edge], cases_view, seed: int):
    """The run's request pool, in send order (the load generator cycles it).

    ``cases_view`` is anything with ``iter_cases()`` over the served
    store (a :class:`SIEFIndex` or a :class:`SegmentStore`).
    """
    rng = random.Random(seed)
    if w.name == "dist-open":
        triples = random_query_triples(graph, w.pool, seed=seed)
        out = []
        for q in triples:
            edge = rng.choice(cases)
            out.append(
                Request(
                    edge,
                    np.array([[q.s, q.t]], dtype=np.int64),
                    _json_dist_body(q.s, q.t, edge),
                )
            )
        return out
    if w.name == "case4-batch":
        # Cross-side pairs drawn as cross_side_query_triples draws them,
        # but the same number of requests per edge, sent round-robin over
        # the edges.  The cases differ about tenfold in cost, so a
        # seed-dependent mix or order of edges (which requests overlap on
        # the two connections) would move the latency percentiles more
        # than a code change does.
        nrng = np.random.default_rng(seed)
        sides = [
            (edge, np.asarray(si.affected.side_u), np.asarray(si.affected.side_v))
            for edge, si in cases_view.iter_cases()
        ]
        return [
            batch_request(
                edge,
                np.stack(
                    [nrng.choice(su, PAIRS_PER_REQUEST), nrng.choice(sv, PAIRS_PER_REQUEST)],
                    axis=1,
                ),
            )
            for _ in range(w.pool // len(sides))
            for edge, su, sv in sides
        ]
    if w.name == "paged-zipf":
        # The ranking of hot cases is fixed like the cases themselves; the
        # seed draws the edge sequence and the pairs.
        hot = list(cases)
        random.Random(GRAPH_SEED).shuffle(hot)
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(hot))]
        edges = rng.choices(hot, weights=weights, k=w.pool)
        nrng = np.random.default_rng(seed)
        return [
            batch_request(edge, nrng.integers(0, w.vertices, size=(PAIRS_PER_REQUEST, 2)))
            for edge in edges
        ]
    raise ValueError(f"workload {w.name} serves no stream")


def oracle_triples(stream, cases_view, seed: int) -> List[Tuple[int, int, Edge]]:
    """``ORACLE_TRIPLES`` seeded ``(s, t, edge)``: half drawn from the
    stream, half cross-side (Case 4) pairs over the indexed cases."""
    rng = random.Random(seed + 1)
    half = ORACLE_TRIPLES // 2
    out = []
    for _ in range(half):
        req = rng.choice(stream)
        s, t = req.pairs[rng.randrange(len(req.pairs))]
        out.append((int(s), int(t), req.edge))
    for q in cross_side_query_triples(cases_view, ORACLE_TRIPLES - half, seed=seed + 2):
        out.append((q.s, q.t, q.edge))
    return out


def group_triples(triples) -> Dict[Edge, np.ndarray]:
    by_edge: Dict[Edge, list] = {}
    for s, t, edge in triples:
        by_edge.setdefault(edge, []).append((s, t))
    return {e: np.asarray(p, dtype=np.int64) for e, p in by_edge.items()}
