"""Shared machinery for the two RELABEL algorithms.

Both BFS AFF and BFS ALL walk the same double loop — for each side
``A ∈ {AV(u), AV(v)}``, process roots ``r ∈ A`` in ascending rank and
consider cross-side targets ``t`` with ``σ[t] > σ[r]`` — and share the
*late* redundancy test of Algorithm 2/3:

    candidate ``(r, d)`` for ``SL(t)`` is redundant iff
    ``min over (h, δ) ∈ SL(t) of dist(r, h, L) + δ <= d``.

``r`` and every stored hub ``h`` lie on the same side as ``r``, where
distances are unchanged by the failure (Case 3), so evaluating
``dist(r, h, L)`` on the *original* labeling is valid in ``G'``.

The ``<=`` comparison (rather than the paper's literal ``=``) matters for
BFS ALL: its pruned searches can reach a target along a detour with an
overestimated distance, and the proof that both algorithms emit the same
index hinges on such candidates being covered — hence rejected — by
earlier entries.  For exact candidates the two comparisons coincide,
because every ``dist(r,h,L) + δ`` term is a valid ``G'`` path length and
therefore never undercuts ``d_{G'}(r, t)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.labeling.label import Labeling
from repro.labeling.query import dist_query

Distance = Union[int, float]


def order_side_by_rank(side: Sequence[int], labeling: Labeling) -> List[int]:
    """Sort one affected side ascending by ordering rank."""
    rank = labeling.ordering.rank
    return sorted(side, key=rank)


def is_redundant(
    labeling: Labeling,
    sl_ranks: List[int],
    sl_dists: List[int],
    r: int,
    candidate_dist: int,
    via_cache: Dict[int, Distance],
    row: Optional[np.ndarray] = None,
) -> bool:
    """The late redundancy test described in the module docstring.

    ``via_cache`` memoizes ``dist(r, hub, L)`` by hub rank for the current
    root ``r`` — every hub appearing in any ``SL(t)`` this root examines
    is one of the (few) earlier roots of the same side, so the cache turns
    the dominant ``O(cross pairs × SL size)`` label merges into
    ``O(roots²)`` of them.

    The batched path passes ``row``, the root's sweep distances
    ``d_{G'}(r, ·)`` (``-1`` = not settled), and reads it first: a hub
    the sweep settled needs no label query, because the failure changes
    no distance on ``r``'s side.  ``via_cache`` then holds only the hubs
    the sweep's early exit left unsettled, so its size is the number of
    label queries this root ran.
    """
    vertex = labeling.ordering.vertex
    for h_rank, delta in zip(sl_ranks, sl_dists):
        via = via_cache.get(h_rank)
        if via is None:
            hv = vertex(h_rank)
            via = -1 if row is None else int(row[hv])
            if via < 0:
                via = dist_query(labeling, r, hv)
                via_cache[h_rank] = via
        if via + delta <= candidate_dist:
            return True
    return False


def cross_pairs_processed(
    side_a: Sequence[int], side_b: Sequence[int], labeling: Labeling
) -> List[Tuple[int, int]]:
    """All ``(root, target)`` pairs one relabel pass handles (test helper)."""
    rank = labeling.ordering.rank
    pairs = []
    for r in side_a:
        for t in side_b:
            if rank(t) > rank(r):
                pairs.append((r, t))
    return pairs
