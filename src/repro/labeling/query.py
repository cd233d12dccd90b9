"""Distance query evaluation over 2-hop labelings (Equation 1).

``dist(s, t, L) = min { δ(h,s) + δ(h,t) : h ∈ hubs(s) ∩ hubs(t) }`` — a
merge join of two ascending rank arrays.  Returns :data:`INF` when the
labels share no hub, which for a distance cover means "different
components" (§3.2 of the paper).

A frozen labeling answers Equation 1 with one join per kernel tier, the
tier chosen by ``repro.kernels.resolve("hub_join")``:

* ``cext`` — the compiled merge join, bound once to the labeling's flat
  arrays.  The binding lives in ``Labeling._batch_cache``;
  :meth:`~repro.labeling.label.Labeling.thaw` drops it, and a labeling
  whose arrays were replaced is bound again on its next query.
  :func:`dist_query` is a one-pair call of the join and
  :func:`batch_dist_query` one call per batch, whatever its size.
* ``numpy`` — the reference the compiled join matches bit for bit:
  :func:`merge_min_sum` over the two label slices for one pair, and a
  sorted-key join over ~2k-pair chunks for a batch.  The join touches
  ``O(sum of label sizes)`` data, so bandwidth, not FLOPs, is its
  budget; chunking keeps every expanded intermediate (ragged gather,
  composite keys, join positions) cache-resident.

A thawed labeling answers :func:`dist_query` by merging its per-vertex
lists; :func:`batch_dist_query` freezes it first.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro import kernels as _kernels
from repro.obs import hooks as _obs
from repro.obs.metrics import SIZE_EDGES

INF = float("inf")
"""Distance reported for disconnected pairs."""

Distance = Union[int, float]

_BATCH_CHUNK = 2048
"""Pairs evaluated per chunk of :func:`batch_dist_query`.  Sized so the
expanded per-chunk intermediates (a few entries × avg label size × 8 B)
stay within CPU cache — the join is bandwidth-bound, and chunking it is
worth ~10x over one monolithic pass at 200k pairs."""


def merge_min_sum(
    ranks_a: List[int],
    dists_a: List[Distance],
    ranks_b: List[int],
    dists_b: List[Distance],
) -> Distance:
    """Minimum ``dists_a[i] + dists_b[j]`` over positions with equal ranks.

    Both rank arrays must be strictly ascending (the labeling invariant).
    """
    best: Distance = INF
    i = j = 0
    len_a = len(ranks_a)
    len_b = len(ranks_b)
    while i < len_a and j < len_b:
        ra = ranks_a[i]
        rb = ranks_b[j]
        if ra == rb:
            total = dists_a[i] + dists_b[j]
            if total < best:
                best = total
            i += 1
            j += 1
        elif ra < rb:
            i += 1
        else:
            j += 1
    return best


def _bound_join(labeling, bind):
    """The compiled hub join bound to ``labeling``'s flat arrays.

    ``bind`` is the ``hub_join`` kernel from :func:`repro.kernels.resolve`;
    ``None`` (the numpy tier) or arrays the kernel does not take give
    ``None``, and the caller runs the numpy reference.
    """
    if bind is None:
        return None
    join = labeling._batch_cache
    offsets = labeling.offsets
    hubs = labeling.hubs_flat
    dists = labeling.dists_flat
    if join is None or not join.bound_to(offsets, hubs, dists):
        join = labeling._batch_cache = bind(offsets, hubs, dists)
    return join


def dist_query(labeling, s: int, t: int) -> Distance:
    """``dist(s, t, L)`` for an undirected labeling.

    For a verified 2-hop distance cover this equals the true graph
    distance ``d_G(s, t)``: an ``int`` for integral labels, a ``float``
    for float64 labels, :data:`INF` across components and ``0`` when
    ``s == t``.  Works on both backends; see the module docstring for
    the join each tier runs.  A vertex id outside ``[0, n)`` raises
    :class:`IndexError`, as in :func:`validate_pairs`.
    """
    offsets = labeling.offsets
    n = len(labeling.hub_ranks) if offsets is None else len(offsets) - 1
    if not (0 <= s < n and 0 <= t < n):
        raise IndexError(
            f"pair vertex out of range for {n} vertices: "
            f"({s}, {t}), valid range is [0, {n - 1}]"
        )
    reg = _obs.registry
    if reg is not None:
        # Hub-scan length: entries Equation 1 walks for this pair.
        if offsets is not None:
            scanned = int(
                (offsets[s + 1] - offsets[s]) + (offsets[t + 1] - offsets[t])
            )
        else:
            scanned = len(labeling.hub_ranks[s]) + len(labeling.hub_ranks[t])
        reg.counter("label.query.scalar").inc()
        reg.histogram("label.query.hub_scan", SIZE_EDGES).observe(scanned)
    if s == t:
        return 0
    if offsets is None:
        return merge_min_sum(
            labeling.hub_ranks[s],
            labeling.hub_dists[s],
            labeling.hub_ranks[t],
            labeling.hub_dists[t],
        )
    join = _bound_join(labeling, _kernels.resolve("hub_join")[1])
    if join is not None:
        return join.pair(s, t)
    # The numpy reference reads the same flat arrays the C join binds.
    hubs = labeling.hubs_flat
    dists = labeling.dists_flat
    a0, a1 = offsets[s], offsets[s + 1]
    b0, b1 = offsets[t], offsets[t + 1]
    return merge_min_sum(
        hubs[a0:a1].tolist(),
        dists[a0:a1].tolist(),
        hubs[b0:b1].tolist(),
        dists[b0:b1].tolist(),
    )


def dist_query_directed(dlabeling, s: int, t: int) -> Distance:
    """``dist(s → t)`` for a directed labeling (out-label of s, in-label of t)."""
    if s == t:
        return 0
    return merge_min_sum(
        dlabeling.out_ranks[s],
        dlabeling.out_dists[s],
        dlabeling.in_ranks[t],
        dlabeling.in_dists[t],
    )


def validate_pairs(pairs: Sequence[Tuple[int, int]], n: int) -> np.ndarray:
    """Normalize a pairs argument to an ``(k, 2)`` int64 array, checked.

    Shared by every batch entry point so malformed input fails with one
    clear message instead of a numpy index error deep in the join (or —
    worse — a silently wrong answer from negative-index wraparound).
    An empty input is allowed and returns an empty ``(0, 2)`` array.
    """
    p = np.asarray(pairs, dtype=np.int64)
    if p.size == 0:
        return p.reshape(0, 2)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValueError(f"pairs must have shape (k, 2), got {p.shape}")
    # One reduction checks both bounds: a negative id read as uint64 is
    # at least 2**63, so it fails the same `>= n` test as a large one.
    if int(p.view(np.uint64).max()) >= n:
        lo = int(p.min())
        hi = int(p.max())
        raise IndexError(
            f"pair vertex out of range for {n} vertices: "
            f"ids span [{lo}, {hi}], valid range is [0, {n - 1}]"
        )
    return p


def _ragged_gather(
    offsets: np.ndarray, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Indices into the flat arrays covering ``L(v)`` for every ``v``.

    Returns ``(idx, pair_id)``: ``idx`` walks each queried label slice in
    order, ``pair_id[i]`` names the position in ``vertices`` that entry
    ``idx[i]`` belongs to.  Pure numpy — no per-vertex Python loop.
    """
    starts = offsets[vertices]
    counts = offsets[vertices + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    cum = np.zeros(len(vertices) + 1, dtype=np.int64)
    np.cumsum(counts, out=cum[1:])
    idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum[:-1], counts)
        + np.repeat(starts, counts)
    )
    pair_id = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
    return idx, pair_id


def _batch_chunk(
    best: np.ndarray,
    s: np.ndarray,
    t: np.ndarray,
    offsets: np.ndarray,
    hubs: np.ndarray,
    dists: np.ndarray,
    n: int,
    wide,
) -> None:
    """Evaluate Equation 1 for one chunk of pairs into ``best`` (a view).

    ``best`` arrives as ``inf`` and leaves holding the chunk's minima;
    the caller fixes up ``s == t`` afterwards.
    """
    m = len(s)
    # Ragged gather of each pair's two label slices.
    st_a = offsets[s]
    cnt_a = offsets[s + 1] - st_a
    st_b = offsets[t]
    cnt_b = offsets[t + 1] - st_b
    cum_a = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(cnt_a, out=cum_a[1:])
    cum_b = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(cnt_b, out=cum_b[1:])
    tot_a = int(cum_a[-1])
    tot_b = int(cum_b[-1])
    if tot_a == 0 or tot_b == 0:
        return
    idx_a = np.arange(tot_a, dtype=np.int64) - np.repeat(
        cum_a[:-1] - st_a, cnt_a
    )
    idx_b = np.arange(tot_b, dtype=np.int64) - np.repeat(
        cum_b[:-1] - st_b, cnt_b
    )
    # Composite (pair, hub) keys.  Within each side keys are globally
    # sorted and unique: pair blocks appear in order and hub ranks are
    # strictly ascending inside a block — so one searchsorted join finds
    # every shared hub without re-sorting.  int32 keys when they fit
    # (chunk * n < 2^31) halve the bandwidth of the search.
    if m * n < 2**31:
        key_t = np.int32
    else:
        key_t = np.int64
    pid_a = np.repeat(np.arange(m, dtype=key_t), cnt_a)
    pid_b = np.repeat(np.arange(m, dtype=key_t), cnt_b)
    keys_a = pid_a * key_t(n) + hubs[idx_a].astype(key_t, copy=False)
    keys_b = pid_b * key_t(n) + hubs[idx_b].astype(key_t, copy=False)
    pos = np.searchsorted(keys_a, keys_b)
    np.minimum(pos, keys_a.size - 1, out=pos)
    hit_b = np.flatnonzero(keys_a[pos] == keys_b)
    if hit_b.size == 0:
        return
    hit_a = pos[hit_b]
    totals = dists[idx_a[hit_a]].astype(wide, copy=False) + dists[idx_b[hit_b]]
    # Matched entries stay grouped by pair (keys_b was sorted by pair id),
    # so a segmented reduceat replaces the much slower minimum.at.
    seg = pid_b[hit_b]
    starts = np.flatnonzero(np.r_[True, seg[1:] != seg[:-1]])
    mins = np.minimum.reduceat(totals, starts)
    tgt = seg[starts]
    best[tgt] = np.minimum(best[tgt], mins)


def batch_dist_query(labeling, pairs: Sequence[Tuple[int, int]]) -> np.ndarray:
    """Vectorized ``dist(s, t, L)`` for many pairs at once.

    Parameters
    ----------
    labeling:
        A :class:`~repro.labeling.label.Labeling`.  Thawed labelings are
        frozen in place on first use (an ``O(total entries)`` one-time
        conversion).
    pairs:
        ``(k, 2)`` array-like of ``(s, t)`` vertex ids.

    Returns
    -------
    numpy.ndarray
        ``float64`` array of length ``k``; ``numpy.inf`` marks
        disconnected pairs and ``0.0`` the ``s == t`` pairs.  Values are
        exact — identical to looping :func:`dist_query`.
    """
    reg = _obs.registry
    t_start = time.perf_counter() if reg is not None else 0.0
    p = validate_pairs(pairs, labeling.num_vertices)
    k = len(p)
    if k == 0:
        return np.zeros(0, dtype=np.float64)
    if labeling.offsets is None:
        labeling.freeze()
    tier, bind = _kernels.resolve("hub_join")
    join = _bound_join(labeling, bind)
    chunk_hist = (
        reg.histogram("label.query.batch_chunk_size", SIZE_EDGES)
        if reg is not None
        else None
    )
    with _obs.span("label.query.batch"):
        if join is not None:
            # Exact for the same reason the numpy join is: every
            # candidate is a single widened add, and the minimum over an
            # identical candidate set is bit-identical in any order.
            out = join.batch(p)
            if chunk_hist is not None:
                chunk_hist.observe(k)
        else:
            s = p[:, 0]
            t = p[:, 1]
            dists = labeling.dists_flat
            wide = np.float64 if dists.dtype.kind == "f" else np.int64
            out = np.full(k, np.inf, dtype=np.float64)
            for lo in range(0, k, _BATCH_CHUNK):
                hi = min(lo + _BATCH_CHUNK, k)
                if chunk_hist is not None:
                    chunk_hist.observe(hi - lo)
                _batch_chunk(
                    out[lo:hi],
                    s[lo:hi],
                    t[lo:hi],
                    labeling.offsets,
                    labeling.hubs_flat,
                    dists,
                    labeling.num_vertices,
                    wide,
                )
            out[s == t] = 0.0
    if reg is not None:
        reg.counter("label.query.batch_calls").inc()
        reg.counter("label.query.batch_pairs").inc(k)
        if join is not None:
            reg.counter(f"kernels.hub_join.{tier}").inc()
        reg.histogram("label.query.batch_seconds").observe(
            time.perf_counter() - t_start
        )
    return out
