"""SIEF construction driver: every single-edge failure case of a graph.

Implements the paper's overall build (§4.1–4.3) with its engineering
notes applied:

* the ``du`` distance vector is computed once per vertex and reused for
  all failed edges incident to it ("fix an end point of failed edges");
* ``G'`` is never materialized — BFS skips the failed edge inline;
* IDENTIFY and RELABEL are timed separately, feeding Table 5 and
  Figure 7 of the evaluation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.affected import identify_affected, identify_affected_csr
from repro.core.batched import build_supplemental_batched
from repro.core.bfs_aff import build_supplemental_bfs_aff
from repro.core.bfs_all import build_supplemental_bfs_all
from repro.core.index import SIEFIndex
from repro.exceptions import IndexError_
from repro.graph.csr import CSRGraph
from repro.graph.frontier import bfs_bitparallel_csr, edge_positions
from repro.graph.graph import Graph, normalize_edge
from repro.graph.traversal import bfs_distances
from repro.labeling.label import Labeling
from repro.labeling.pll import build_pll
from repro.obs import hooks as _obs
from repro.obs.metrics import SIZE_EDGES

Edge = Tuple[int, int]

RELABEL_ALGORITHMS: Dict[str, Callable] = {
    "bfs_aff": build_supplemental_bfs_aff,
    "bfs_all": build_supplemental_bfs_all,
    "batched": build_supplemental_batched,
}

IDENTIFY_GROUP = 32
"""Failure cases identified per pair of bit-parallel sweeps in the
batched full build: each case contributes two roots (``u`` and ``v``),
so 32 cases fill the 64 lanes of one ``uint64`` sweep."""


def record_case_obs(reg, record: "EdgeBuildRecord") -> None:
    """Record one built failure case into a metrics registry.

    The single definition serves the serial builder, the lazy index and
    the parallel workers — which is what makes the parallel-vs-serial
    metrics-parity invariant (worker registries merged at join must sum
    to the serial totals) hold by construction for the deterministic
    counters.  Timing histograms are recorded too but are machine-
    dependent; parity is only promised for the counters.
    """
    reg.counter("sief.build.cases").inc()
    reg.counter("sief.build.relabel_invocations").inc()
    reg.counter("sief.build.affected_vertices").inc(record.affected_total)
    reg.counter("sief.build.supplemental_entries").inc(
        record.supplemental_entries
    )
    reg.counter("sief.build.relabel_expanded").inc(record.relabel_expanded)
    reg.histogram("sief.build.affected_per_case", SIZE_EDGES).observe(
        record.affected_total
    )
    reg.histogram("sief.build.entries_per_case", SIZE_EDGES).observe(
        record.supplemental_entries
    )
    reg.histogram("sief.build.identify_seconds").observe(
        record.identify_seconds
    )
    reg.histogram("sief.build.relabel_seconds").observe(
        record.relabel_seconds
    )


def build_one_case(
    graph,
    labeling,
    relabel: Callable,
    u: int,
    v: int,
    csr: Optional[CSRGraph] = None,
    dist_u=None,
    dist_v=None,
    dist_buf=None,
) -> Tuple[object, "EdgeBuildRecord"]:
    """IDENTIFY + RELABEL + measurement for one failed edge.

    The single case pipeline shared by the serial builder's
    :meth:`SIEFBuilder.build_case`, the lazy index and the parallel
    workers, so all four build paths stay bit-identical by construction.
    ``csr`` switches to the vectorized identify and is forwarded to the
    relabel callable (all registered algorithms accept it; the scalar
    ones ignore it).
    """
    t0 = time.perf_counter()
    if csr is not None:
        affected = identify_affected_csr(csr, u, v)
    else:
        affected = identify_affected(graph, u, v, dist_u=dist_u, dist_v=dist_v)
    t1 = time.perf_counter()
    si = relabel(graph, labeling, affected, dist_buf=dist_buf, csr=csr)
    t2 = time.perf_counter()
    record = EdgeBuildRecord(
        edge=normalize_edge(u, v),
        affected_u=len(affected.side_u),
        affected_v=len(affected.side_v),
        supplemental_entries=si.total_entries(),
        identify_seconds=t1 - t0,
        relabel_seconds=t2 - t1,
        relabel_expanded=si.search_expanded,
    )
    return si, record


@dataclass(frozen=True)
class EdgeBuildRecord:
    """Per-failure-case build measurements (one row of the raw data)."""

    edge: Edge
    affected_u: int
    affected_v: int
    supplemental_entries: int
    identify_seconds: float
    relabel_seconds: float
    relabel_expanded: int = 0

    @property
    def affected_total(self) -> int:
        """``|AV(u) ∪ AV(v)|`` for this case."""
        return self.affected_u + self.affected_v


@dataclass(frozen=True)
class BuildReport:
    """Aggregate of one full SIEF build."""

    algorithm: str
    records: Tuple[EdgeBuildRecord, ...]

    @property
    def num_cases(self) -> int:
        """Failure cases built."""
        return len(self.records)

    @property
    def identify_seconds(self) -> float:
        """Total IDENTIFY time (Table 5)."""
        return sum(r.identify_seconds for r in self.records)

    @property
    def relabel_seconds(self) -> float:
        """Total RELABEL time (Figure 7)."""
        return sum(r.relabel_seconds for r in self.records)

    @property
    def relabel_expanded(self) -> int:
        """Total vertices expanded by the RELABEL searches (Figure 7's
        machine-independent companion metric)."""
        return sum(r.relabel_expanded for r in self.records)

    @property
    def avg_affected(self) -> float:
        """Average ``|AU|`` per case (Table 3)."""
        if not self.records:
            return 0.0
        return sum(r.affected_total for r in self.records) / len(self.records)

    @property
    def avg_supplemental_entries(self) -> float:
        """Average SLEN per case (Table 3)."""
        if not self.records:
            return 0.0
        return sum(r.supplemental_entries for r in self.records) / len(self.records)

    @property
    def total_supplemental_entries(self) -> int:
        """Total supplemental entries (Figure 5)."""
        return sum(r.supplemental_entries for r in self.records)


class SIEFBuilder:
    """Builds a :class:`SIEFIndex` for a graph.

    Parameters
    ----------
    graph:
        Undirected, unweighted graph ``G``.
    labeling:
        Optional prebuilt well-ordered 2-hop cover; built with PLL
        (degree ordering) when omitted.
    algorithm:
        A key of :data:`RELABEL_ALGORITHMS`: ``"batched"`` (default, the
        bit-parallel production path) or one of the paper's reference
        algorithms ``"bfs_all"`` / ``"bfs_aff"`` (Algorithms 3 and 2),
        which build bit-identical indexes.
    """

    def __init__(
        self,
        graph: Graph,
        labeling: Optional[Labeling] = None,
        algorithm: str = "batched",
    ) -> None:
        if algorithm not in RELABEL_ALGORITHMS:
            raise IndexError_(
                f"unknown relabel algorithm {algorithm!r}; "
                f"choose from {sorted(RELABEL_ALGORITHMS)}"
            )
        self.graph = graph
        self.labeling = labeling if labeling is not None else build_pll(graph)
        self.algorithm = algorithm
        self._relabel = RELABEL_ALGORITHMS[algorithm]
        self._csr_cache: Optional[CSRGraph] = None

    def _csr(self) -> CSRGraph:
        """CSR snapshot of the (immutable during a build) graph."""
        if self._csr_cache is None:
            self._csr_cache = CSRGraph.from_graph(self.graph)
        return self._csr_cache

    # -- single case --------------------------------------------------------

    def build_case(self, u: int, v: int) -> Tuple[object, EdgeBuildRecord]:
        """Build the supplemental index for one failed edge.

        Returns ``(SupplementalIndex, EdgeBuildRecord)``.
        """
        csr = self._csr() if self.algorithm == "batched" else None
        si, record = build_one_case(
            self.graph, self.labeling, self._relabel, u, v, csr=csr
        )
        reg = _obs.registry
        if reg is not None:
            record_case_obs(reg, record)
        return si, record

    # -- full build ----------------------------------------------------------

    def build(
        self, edges: Optional[Iterable[Edge]] = None
    ) -> Tuple[SIEFIndex, BuildReport]:
        """Build supplements for all edges (or a given subset).

        Edges are grouped by their smaller endpoint so that endpoint's
        distance vector is computed once and shared across the group.
        """
        if edges is None:
            edge_list: List[Edge] = list(self.graph.edges())
        else:
            edge_list = [normalize_edge(*e) for e in edges]
        edge_list.sort()

        index = SIEFIndex(self.labeling)
        records: List[EdgeBuildRecord] = []
        reg = _obs.registry
        with _obs.span("sief.build"):
            if self.algorithm == "batched":
                case_iter = self._iter_cases_batched(edge_list)
            else:
                case_iter = self._iter_cases_scalar(edge_list)
            for edge, si, record in case_iter:
                index.add_supplement(edge, si)
                records.append(record)
                if reg is not None:
                    record_case_obs(reg, record)
                prog = _obs.progress
                if prog is not None:
                    prog.advance()
        return index, BuildReport(self.algorithm, tuple(records))

    def _iter_cases_scalar(self, edge_list: Sequence[Edge]):
        """Per-case scalar pipeline (the seed's build loop, unchanged)."""
        dist_buf = [-1] * self.graph.num_vertices
        current_u = -1
        du: Optional[List[int]] = None
        for u, v in edge_list:
            with _obs.span("sief.build.case"):
                t0 = time.perf_counter()
                if u != current_u:
                    current_u = u
                    du = bfs_distances(self.graph, u)
                dv = bfs_distances(self.graph, v)
                affected = identify_affected(
                    self.graph, u, v, dist_u=du, dist_v=dv
                )
                t1 = time.perf_counter()
                si = self._relabel(
                    self.graph, self.labeling, affected, dist_buf=dist_buf
                )
                t2 = time.perf_counter()
                record = EdgeBuildRecord(
                    edge=(u, v),
                    affected_u=len(affected.side_u),
                    affected_v=len(affected.side_v),
                    supplemental_entries=si.total_entries(),
                    identify_seconds=t1 - t0,
                    relabel_seconds=t2 - t1,
                    relabel_expanded=si.search_expanded,
                )
            yield (u, v), si, record

    def _iter_cases_batched(self, edge_list: Sequence[Edge]):
        """Cross-case IDENTIFY batching + bit-parallel RELABEL.

        Groups :data:`IDENTIFY_GROUP` failure cases per iteration.  Each
        case needs four distance rows (``du``, ``dv`` on ``G`` and
        ``d'u``, ``d'v`` on ``G'``); packing the ``(u, v)`` roots of the
        whole group into the 64 lanes of two bit-parallel sweeps — one
        unmasked, one with a per-lane mask on that lane's failed edge —
        amortizes the frontier bookkeeping across the group.  The sweep
        time is split evenly across the group's records so per-case
        ``identify_seconds`` still sums to the true total.
        """
        csr = self._csr()
        indptr, indices = csr.indptr, csr.indices
        for g0 in range(0, len(edge_list), IDENTIFY_GROUP):
            group = edge_list[g0 : g0 + IDENTIFY_GROUP]
            t0 = time.perf_counter()
            with _obs.span("sief.build.identify_sweep"):
                pairs = [
                    edge_positions(indptr, indices, u, v) for u, v in group
                ]
                roots: List[int] = []
                for u, v in group:
                    roots.append(u)
                    roots.append(v)
                base, _ = bfs_bitparallel_csr(indptr, indices, roots)
                avoid = [pairs[i // 2] for i in range(len(roots))]
                prime, _ = bfs_bitparallel_csr(
                    indptr, indices, roots, avoid_positions=avoid
                )
            sweep_share = (time.perf_counter() - t0) / len(group)
            for ci, (u, v) in enumerate(group):
                with _obs.span("sief.build.case"):
                    t1 = time.perf_counter()
                    affected = identify_affected_csr(
                        csr,
                        u,
                        v,
                        du=base[2 * ci],
                        dv=base[2 * ci + 1],
                        du_new=prime[2 * ci],
                        dv_new=prime[2 * ci + 1],
                    )
                    t2 = time.perf_counter()
                    si = self._relabel(
                        self.graph, self.labeling, affected, csr=csr
                    )
                    t3 = time.perf_counter()
                record = EdgeBuildRecord(
                    edge=(u, v),
                    affected_u=len(affected.side_u),
                    affected_v=len(affected.side_v),
                    supplemental_entries=si.total_entries(),
                    identify_seconds=sweep_share + (t2 - t1),
                    relabel_seconds=t3 - t2,
                    relabel_expanded=si.search_expanded,
                )
                yield (u, v), si, record


def build_sief(
    graph: Graph,
    labeling: Optional[Labeling] = None,
    algorithm: str = "batched",
    edges: Optional[Sequence[Edge]] = None,
) -> SIEFIndex:
    """One-call convenience: PLL (if needed) + full SIEF build."""
    index, _ = SIEFBuilder(graph, labeling, algorithm).build(edges)
    return index
