"""On-demand SIEF: build failure cases lazily, track graph growth.

The paper's offline build covers *all* ``m`` failure cases up front —
right for a read-only index, wasteful when only a few edges ever fail or
when the graph keeps evolving.  :class:`LazySIEFIndex` combines the
pieces this library already has into the deployment-shaped object:

* supplements are built on the **first query naming an edge** and cached
  (amortizing the paper's per-case IDENTIFY + RELABEL cost);
* **edge insertions** are absorbed in place via the dynamic-PLL repair
  (:mod:`repro.labeling.dynamic`), which keeps the labeling an exact
  cover — cached supplements are invalidated, because an insertion can
  change both affected sets and replacement distances;
* a **permanent deletion** (`commit_failure`) turns a failure case into
  the new baseline: the library rebuilds the labeling for the shrunk
  graph (decremental 2-hop maintenance is exactly what the paper proves
  impractical, so honesty demands a rebuild) and drops all supplements.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

from repro.core.builder import RELABEL_ALGORITHMS, record_case_obs
from repro.core.builder import build_one_case
from repro.graph.csr import CSRGraph
from repro.obs import hooks as _obs
from repro.obs.context import attribute_page_fault
from repro.core.index import SIEFIndex
from repro.core.query import SIEFQueryEngine
from repro.exceptions import EdgeNotFound, IndexError_
from repro.graph.graph import Graph, normalize_edge
from repro.labeling.dynamic import insert_edge as _dynamic_insert
from repro.labeling.pll import build_pll
from repro.labeling.label import Labeling

Edge = Tuple[int, int]
Distance = Union[int, float]


class LazySIEFIndex:
    """A SIEF index that materializes failure cases on first use.

    Parameters
    ----------
    graph:
        The (mutable, owned) graph; use :meth:`insert_edge` /
        :meth:`commit_failure` to change it, not direct mutation —
        the index must see every change.
    labeling:
        Optional prebuilt labeling; built with PLL otherwise.
    algorithm:
        Relabel strategy for on-demand builds (default ``batched``).
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
        self.algorithm = algorithm
        self._relabel = RELABEL_ALGORITHMS[algorithm]
        self._csr_cache: Optional[CSRGraph] = None
        self._index = SIEFIndex(
            labeling if labeling is not None else build_pll(graph)
        )
        self._engine = SIEFQueryEngine(self._index)
        self.build_seconds = 0.0
        self.cases_built = 0
        self.cache_hits = 0

    @property
    def labeling(self) -> Labeling:
        """The current (exact) 2-hop labeling."""
        return self._index.labeling

    # -- queries -------------------------------------------------------------

    def distance(self, s: int, t: int, failed_edge: Edge) -> Distance:
        """``d_{G - e}(s, t)``, building the case for ``e`` if needed."""
        self._ensure_case(*failed_edge)
        return self._engine.distance(s, t, failed_edge)

    def _csr(self) -> CSRGraph:
        """CSR snapshot of the current graph; rebuilt after each mutation."""
        if self._csr_cache is None:
            self._csr_cache = CSRGraph.from_graph(self.graph)
        return self._csr_cache

    def _ensure_case(self, u: int, v: int) -> None:
        reg = _obs.registry
        if self._index.has_case(u, v):
            self.cache_hits += 1
            if reg is not None:
                reg.counter("sief.lazy.cache.hits").inc()
            return
        if not self.graph.has_edge(u, v):
            raise EdgeNotFound(u, v)
        if reg is not None:
            reg.counter("sief.lazy.cache.misses").inc()
        attribute_page_fault()
        with _obs.span("sief.lazy.build_case"):
            csr = self._csr() if self.algorithm == "batched" else None
            si, record = build_one_case(
                self.graph, self._index.labeling, self._relabel, u, v, csr=csr
            )
            self.build_seconds += record.identify_seconds + record.relabel_seconds
            self._index.add_supplement((u, v), si)
            self.cases_built += 1
        if reg is not None:
            record_case_obs(reg, record)
            reg.gauge("sief.lazy.cache.resident").set(self._index.num_cases)
        prog = _obs.progress
        if prog is not None:
            prog.advance()

    # -- mutation --------------------------------------------------------------

    def insert_edge(self, a: int, b: int) -> None:
        """Grow the graph; repair the labeling; invalidate cached cases.

        Invalidation is wholesale: a new edge can shrink replacement
        distances (stale supplements would *overestimate*) and reshape
        affected sets (stale membership would route queries through the
        wrong §4.4 case), so per-case salvage is unsafe.
        """
        _dynamic_insert(self.graph, self._index.labeling, a, b)
        reg = _obs.registry
        if reg is not None:
            reg.counter("sief.lazy.insertions").inc()
        self._invalidate()

    def commit_failure(self, u: int, v: int) -> None:
        """Make a failure permanent: remove the edge and re-baseline.

        The old labeling cannot be repaired for deletions (the gap SIEF
        exists to cover at query time); committing rebuilds PLL on the
        shrunk graph with the same ordering strategy.
        """
        self.graph.remove_edge(u, v)
        self._csr_cache = None
        reg = _obs.registry
        if reg is not None:
            reg.counter("sief.lazy.rebuilds").inc()
            dropped = self._index.num_cases
            if dropped:
                reg.counter("sief.lazy.invalidated_cases").inc(dropped)
        started = time.perf_counter()
        with _obs.span("sief.lazy.rebuild"):
            self._index = SIEFIndex(build_pll(self.graph))
            self._engine = SIEFQueryEngine(self._index)
        self.build_seconds += time.perf_counter() - started
        self.cases_built = 0
        if reg is not None:
            reg.gauge("sief.lazy.cache.resident").set(0)

    def _invalidate(self) -> None:
        self._csr_cache = None
        reg = _obs.registry
        if reg is not None:
            reg.counter("sief.lazy.invalidations").inc()
            dropped = len(self._index.supplements)
            if dropped:
                reg.counter("sief.lazy.invalidated_cases").inc(dropped)
            reg.gauge("sief.lazy.cache.resident").set(0)
        self._index.supplements.clear()
        self.cases_built = 0

    # -- introspection -----------------------------------------------------------

    @property
    def cached_cases(self) -> Dict[Edge, object]:
        """The currently materialized failure cases (read-only view)."""
        return dict(self._index.supplements)

    def __repr__(self) -> str:
        return (
            f"LazySIEFIndex(n={self.graph.num_vertices}, "
            f"m={self.graph.num_edges}, cached={self.cases_built})"
        )


class PagedSIEFIndex:
    """Demand-paged SIEF index over a :class:`~repro.core.segstore.SegmentStore`.

    The lazy seam generalized from "build on first touch" to **load on
    first touch**: a capacity-bounded LRU of hot failure cases backed by
    mmap'd segment reads.  Duck-types the :class:`SIEFIndex` surface the
    query engine and the serve daemon use (``labeling``,
    ``supplement``, ``has_case``, ``num_cases``, ``supplements``), so
    :class:`~repro.core.query.SIEFQueryEngine` and ``batch_query`` run
    against a store that never fully resides in memory.

    Metrics (when a registry is installed): counters
    ``sief.lazy.cache.{hits,misses,evictions}`` and gauge
    ``sief.lazy.cache.resident``.
    """

    DEFAULT_CAPACITY = 256

    def __init__(self, store, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise IndexError_(
                f"paged index capacity must be >= 1, got {capacity}"
            )
        self._store = store
        self.capacity = capacity
        self.labeling = store.labeling()
        self._lru: "OrderedDict[Edge, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- SIEFIndex surface ---------------------------------------------------

    def supplement(self, u: int, v: int):
        """The supplemental index for failed edge ``(u, v)``, paging it
        in (and possibly evicting the coldest case) on a miss."""
        key = normalize_edge(u, v)
        reg = _obs.registry
        si = self._lru.get(key)
        if si is not None:
            self._lru.move_to_end(key)
            self.hits += 1
            if reg is not None:
                reg.counter("sief.lazy.cache.hits").inc()
            return si
        si = self._store.load_case(*key)  # raises FailureCaseNotIndexed
        self.misses += 1
        attribute_page_fault()
        self._lru[key] = si
        evicted = 0
        while len(self._lru) > self.capacity:
            self._lru.popitem(last=False)
            evicted += 1
        self.evictions += evicted
        if reg is not None:
            reg.counter("sief.lazy.cache.misses").inc()
            if evicted:
                reg.counter("sief.lazy.cache.evictions").inc(evicted)
            reg.gauge("sief.lazy.cache.resident").set(len(self._lru))
        return si

    def has_case(self, u: int, v: int) -> bool:
        return self._store.has_case(u, v)

    @property
    def num_cases(self) -> int:
        return self._store.num_cases

    @property
    def supplements(self):
        """All indexed failure edges (from the TOC — nothing paged in).

        The serve daemon's ``/failures`` route iterates/sorts this; a
        list of edge tuples satisfies that read-only use without
        pretending the mapping's values are resident.
        """
        return self._store.case_edges()

    def total_supplemental_entries(self) -> int:
        return self._store.total_entries

    def freeze(self) -> "PagedSIEFIndex":
        """No-op (the store's labeling is already frozen flat)."""
        return self

    # -- introspection -------------------------------------------------------

    @property
    def resident_cases(self) -> int:
        """Currently cached failure cases (≤ ``capacity``)."""
        return len(self._lru)

    def __repr__(self) -> str:
        return (
            f"PagedSIEFIndex(cases={self.num_cases}, "
            f"resident={self.resident_cases}/{self.capacity}, "
            f"hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions})"
        )
