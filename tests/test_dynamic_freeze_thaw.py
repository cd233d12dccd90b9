"""Freeze/thaw interleaved with dynamic labeling updates (ISSUE 2 satellite).

The flat numpy backend (``freeze``) and the insertion repair
(``labeling/dynamic.py``) meet in production: a serving index is frozen
for batch throughput, an edge arrives, the repair must thaw, mutate,
and the re-frozen labeling must answer exactly like a from-scratch
build.  These tests pin that lifecycle down, including the hub-join
binding that :meth:`thaw` drops.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import LabelingError
from repro.graph import generators
from repro.graph.traversal import UNREACHED, bfs_distances
from repro.labeling.dynamic import insert_edge
from repro.labeling.pll import build_pll
from repro.labeling.query import INF, batch_dist_query, dist_query


def all_pairs_ok(graph, labeling) -> None:
    """Assert the labeling is an exact distance cover of the graph."""
    n = graph.num_vertices
    for s in range(n):
        truth = bfs_distances(graph, s)
        for t in range(n):
            want = truth[t] if truth[t] != UNREACHED else INF
            assert dist_query(labeling, s, t) == want, (s, t)


def missing_edges(graph, rng_seed=0):
    import random

    rng = random.Random(rng_seed)
    out = []
    n = graph.num_vertices
    while len(out) < 4:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not graph.has_edge(u, v) and (u, v) not in out:
            out.append((u, v))
    return out


class TestFrozenMutationRejected:
    def test_direct_mutation_of_frozen_rows_raises(self):
        g = generators.cycle_graph(6)
        labeling = build_pll(g).freeze()
        with pytest.raises(LabelingError, match="frozen"):
            labeling.hub_ranks[0] = [0]

    def test_insert_edge_thaws_automatically(self):
        """The dynamic repair calls thaw() itself; a frozen labeling must
        accept an insertion without the caller doing anything."""
        g = generators.path_graph(8)
        labeling = build_pll(g).freeze()
        assert labeling.frozen
        insert_edge(g, labeling, 0, 7)
        assert not labeling.frozen  # repair left it thawed
        all_pairs_ok(g, labeling)


class TestFreezeThawInterleaving:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_insert_freeze_insert_refreeze_equivalence(self, seed):
        """Alternate mutations and freezes; every state must stay exact."""
        g = generators.erdos_renyi_gnm(16, 24, seed=seed)
        labeling = build_pll(g)
        for i, (u, v) in enumerate(missing_edges(g, rng_seed=seed)):
            if i % 2 == 0:
                labeling.freeze()  # mutate from the frozen state
            insert_edge(g, labeling, u, v)
            all_pairs_ok(g, labeling)  # thawed answers
            labeling.freeze()
            all_pairs_ok(g, labeling)  # frozen answers
            labeling.thaw()

    def test_refrozen_batch_matches_rebuilt(self):
        """After thaw → insert → freeze, the batch path must agree with a
        from-scratch PLL build on the grown graph."""
        g = generators.erdos_renyi_gnm(14, 20, seed=5)
        labeling = build_pll(g)
        labeling.freeze()
        u, v = missing_edges(g, rng_seed=5)[0]
        insert_edge(g, labeling, u, v)
        labeling.freeze()

        fresh = build_pll(g.copy())
        n = g.num_vertices
        pairs = [(s, t) for s in range(n) for t in range(n)]
        got = batch_dist_query(labeling, pairs)
        want = batch_dist_query(fresh, pairs)
        assert np.array_equal(got, want)

    def test_thaw_invalidates_batch_cache(self):
        """A stale hub-join binding would answer from the pre-insertion
        arrays; thaw must drop it and the re-frozen labeling must be
        bound again.  Both tiers, scalar and batch, answer with the new
        distances."""
        from repro import kernels

        g = generators.path_graph(10)
        labeling = build_pll(g)
        pairs = [(0, 9), (9, 0), (4, 8), (1, 1)]
        with kernels.use_tier("auto"):
            assert dist_query(labeling.freeze(), 0, 9) == 9  # binds
            stale = labeling._batch_cache
            insert_edge(g, labeling, 0, 9)  # thaws internally
            assert labeling._batch_cache is None
            labeling.freeze()
            for tier in ("numpy", "auto"):
                with kernels.use_tier(tier):
                    got = batch_dist_query(labeling, pairs)
                    assert got.tolist() == [1.0, 1.0, 4.0, 0.0]
                    scalar = [dist_query(labeling, s, t) for s, t in pairs]
                    assert scalar == [1, 1, 4, 0]
            if kernels.effective_tier() != "numpy":
                join = labeling._batch_cache
                assert join is not stale
                assert join.bound_to(
                    labeling.offsets, labeling.hubs_flat, labeling.dists_flat
                )
