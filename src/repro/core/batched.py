"""Batched RELABEL: bit-parallel multi-root BFS + the scalar late filter.

The scalar relabel algorithms (:mod:`repro.core.bfs_aff`,
:mod:`repro.core.bfs_all`) run one interpreted BFS per affected hub.
This module replaces that loop with the Akiba-style bit-parallel kernel
(:func:`repro.graph.frontier.bfs_bitparallel_csr`): up to 64 roots of
one affected side share a single level-synchronous sweep over the CSR
arrays, each owning one bit lane of a ``uint64`` visited mask, all
avoiding the same failed edge.  A ``needed`` bitmask (which lanes still
owe which cross-side targets a distance) stops the sweep as soon as
every required ``(root, target)`` pair is settled — the vectorized
equivalent of Algorithm 2's "stop when all targets are assigned".

**Bit-identity with the scalar path.**  The kernel computes the *exact*
``d_{G'}(r, t)`` for every pair the scalar BFS would compute (plain BFS,
no pruning), and the late redundancy filter is the very same
:func:`repro.core._relabel.is_redundant` applied in the very same order:
sides in ``(AV(u) → AV(v))`` then ``(AV(v) → AV(u))`` direction, roots
ascending rank, targets ascending rank.  Each ``dist(r, hub)`` the test
needs is read from ``r``'s sweep row first — every stored hub is an
earlier root on ``r``'s side, where the failure changes no distance —
and only a hub the early exit left unsettled costs a label query
(counted as ``sief.relabel.label_merges``).  Every append therefore
lands with the same ``(rank, dist)`` in the same sequence, so the
produced :class:`SupplementalIndex` equals BFS AFF's — and, by the
Algorithm 2/3 equivalence, BFS ALL's.  The parity suite and the
conformance harness assert this on the fuzz corpus.  The only
permitted difference is ``search_expanded`` (settlement counting differs
between one shared sweep and per-root searches), which is excluded from
index equality by design.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Optional, Sequence

import numpy as np

from repro import kernels as _kernels
from repro.core._relabel import is_redundant, order_side_by_rank
from repro.core.affected import AffectedVertices
from repro.core.supplemental import SupplementalIndex
from repro.graph.csr import CSRGraph
from repro.graph.frontier import WORD_BITS, bfs_bitparallel_csr, edge_positions
from repro.labeling.label import Labeling
from repro.obs import hooks as _obs

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)
_ONE = np.uint64(1)


def _relabel_side_batched(
    indptr: np.ndarray,
    indices: np.ndarray,
    avoid_pair,
    labeling: Labeling,
    roots: Sequence[int],
    targets: List[int],
    si: SupplementalIndex,
) -> None:
    """One direction (roots side A, targets side B), 64 roots per sweep."""
    rank = labeling.ordering.rank
    target_ranks = [rank(t) for t in targets]  # ascending (pre-sorted)
    max_rank = target_ranks[-1] if target_ranks else -1
    # Roots ranked above every target have no work; roots are ascending
    # by rank so the live prefix is contiguous.
    root_ranks = [rank(r) for r in roots]
    live = bisect_right(root_ranks, max_rank - 1) if max_rank >= 0 else 0
    if not live:
        return
    reg = _obs.registry

    # Whole-pass compiled kernel: the accelerated tier runs sweeps *and*
    # filter in one call and streams back the exact append sequence
    # (same roots-ascending, targets-ascending order, same sweep-row
    # reads and label-merge fallbacks).  Only the integral frozen-label
    # case is compiled; weighted labelings use the numpy path below.
    tier, kern = _kernels.resolve("relabel")
    if (
        kern is not None
        and labeling.dists_flat is not None
        and labeling.dists_flat.dtype in _kernels.RELABEL_DTYPES
    ):
        # The full side goes in (not just the live prefix): the numpy
        # loop's roots[b0 : b0 + 64] slice is unclamped, so a batch
        # straddling the live boundary sweeps dead roots too, and
        # search_expanded must match that count bit-for-bit.
        out_t, out_rank, out_dist, expanded, merges = kern(
            indptr,
            indices,
            int(avoid_pair[0]),
            int(avoid_pair[1]),
            np.asarray(roots, dtype=np.int64),
            np.asarray(root_ranks, dtype=np.int64),
            live,
            np.asarray(targets, dtype=np.int64),
            np.asarray(target_ranks, dtype=np.int64),
            labeling.offsets,
            labeling.hubs_flat,
            labeling.dists_flat,
        )
        for t, r_rank, d in zip(
            out_t.tolist(), out_rank.tolist(), out_dist.tolist()
        ):
            si.label_of(t).append(r_rank, d)
        si.search_expanded += expanded
        if reg is not None:
            reg.counter(f"kernels.relabel.{tier}").inc()
            reg.counter("sief.relabel.label_merges").inc(merges)
        return

    n = len(indptr) - 1
    target_arr = np.asarray(targets, dtype=np.int64)
    target_rank_arr = np.asarray(target_ranks, dtype=np.int64)
    expanded = merges = 0
    for b0 in range(0, live, WORD_BITS):
        batch = roots[b0 : b0 + WORD_BITS]
        branks = root_ranks[b0 : b0 + WORD_BITS]
        k = len(batch)
        # Lanes a target still needs: exactly the batch roots ranked
        # below it.  Ranks ascend within the batch, so that is a prefix
        # of lanes — one searchsorted gives the prefix length, and the
        # mask is (1 << count) - 1 (count == 64 → all-ones, computed
        # shift-safely).
        cnt = np.searchsorted(
            np.asarray(branks, dtype=np.int64), target_rank_arr, side="left"
        ).astype(np.uint64)
        masks = np.where(
            cnt >= np.uint64(WORD_BITS),
            _FULL,
            (_ONE << (cnt % np.uint64(WORD_BITS))) - _ONE,
        )
        needed = np.zeros(n, dtype=np.uint64)
        needed[target_arr] = masks
        dist, settled = bfs_bitparallel_csr(
            indptr, indices, batch, avoid_positions=avoid_pair, needed=needed
        )
        expanded += settled

        for i in range(k):
            r = batch[i]
            r_rank = branks[i]
            # Targets ranked above this root: a suffix of the ascending
            # target list.
            p = bisect_right(target_ranks, r_rank)
            if p >= len(targets):
                continue
            row = dist[i]
            dvals = row[target_arr[p:]].tolist()
            via_cache: dict = {}
            for t, d in zip(targets[p:], dvals):
                if d < 0:
                    continue  # failure disconnected r from t
                sl = si.label_of(t)
                if not is_redundant(
                    labeling, sl.ranks, sl.dists, r, d, via_cache, row
                ):
                    sl.append(r_rank, d)
            merges += len(via_cache)
    si.search_expanded += expanded
    if reg is not None:
        reg.counter("sief.relabel.label_merges").inc(merges)


def build_supplemental_batched(
    graph,
    labeling: Labeling,
    affected: AffectedVertices,
    dist_buf: Optional[List[int]] = None,
    csr: Optional[CSRGraph] = None,
) -> SupplementalIndex:
    """Bit-parallel RELABEL for one failed edge — same index as BFS AFF.

    Parameters
    ----------
    graph:
        The original graph ``G``; only used to snapshot a CSR when
        ``csr`` is not supplied, so callers building many cases should
        pass the snapshot explicitly (the builder, lazy index and
        parallel workers all do).
    labeling:
        The original 2-hop cover.  Frozen in place on first use when
        thawed (mirroring :func:`repro.labeling.query.batch_dist_query`)
        so the redundancy filter's label queries run on the fast flat
        backend; freezing never changes query results.
    affected:
        Output of :func:`repro.core.affected.identify_affected` (either
        variant).
    dist_buf:
        Accepted for relabel-interface compatibility; unused.
    csr:
        Optional prebuilt :class:`~repro.graph.csr.CSRGraph` of ``G``.
    """
    del dist_buf
    si = SupplementalIndex(affected)
    if affected.disconnected:
        # Bridge failure: no cross-side path survives, SI stays empty.
        return si
    if csr is None:
        csr = CSRGraph.from_graph(graph)
    if not labeling.frozen:
        labeling.freeze()
    side_u = order_side_by_rank(affected.side_u, labeling)
    side_v = order_side_by_rank(affected.side_v, labeling)
    indptr, indices = csr.indptr, csr.indices
    pair = edge_positions(indptr, indices, affected.u, affected.v)
    reg = _obs.registry
    if reg is not None:
        reg.counter("sief.relabel.batched_cases").inc()
    _relabel_side_batched(indptr, indices, pair, labeling, side_u, side_v, si)
    _relabel_side_batched(indptr, indices, pair, labeling, side_v, side_u, si)
    si.drop_empty()
    return si
