"""Edge-case audit for the batch query entry points (ISSUE 2 satellite).

``batch_dist_query`` and ``SIEFQueryEngine.batch_query`` must behave
like the scalar paths on every degenerate input: empty pair lists, all
``s == t`` pairs, duplicated pairs — and malformed input (out-of-range
or negative ids, wrong shapes) must raise one clear exception instead
of a numpy index error from deep inside the join, or worse, silently
wrong answers from negative-index wraparound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.core.builder import build_sief
from repro.core.query import SIEFQueryEngine
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.labeling.query import batch_dist_query, dist_query, validate_pairs


@pytest.fixture(scope="module")
def world():
    g = generators.erdos_renyi_gnm(18, 30, seed=7)
    labeling = build_pll(g)
    index = build_sief(g, labeling)
    return g, labeling, index, SIEFQueryEngine(index)


class TestValidatePairs:
    def test_empty_is_allowed(self):
        p = validate_pairs([], 10)
        assert p.shape == (0, 2)

    def test_wrong_shape_raises_value_error(self):
        with pytest.raises(ValueError, match="shape"):
            validate_pairs([1, 2, 3], 10)
        with pytest.raises(ValueError, match="shape"):
            validate_pairs([[1, 2, 3]], 10)

    def test_out_of_range_raises_index_error_with_range(self):
        with pytest.raises(IndexError, match=r"\[0, 9\]"):
            validate_pairs([(0, 10)], 10)

    def test_negative_raises_index_error(self):
        with pytest.raises(IndexError, match="out of range"):
            validate_pairs([(-1, 3)], 10)


class TestBatchDistQuery:
    def test_empty_pairs(self, world):
        _g, labeling, _index, _engine = world
        out = batch_dist_query(labeling, [])
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_all_self_pairs(self, world):
        _g, labeling, _index, _engine = world
        pairs = [(v, v) for v in range(labeling.num_vertices)]
        assert (batch_dist_query(labeling, pairs) == 0.0).all()

    def test_small_batch_out_of_range_is_clear(self, world):
        """A one-pair batch must validate too."""
        _g, labeling, _index, _engine = world
        n = labeling.num_vertices
        with pytest.raises(IndexError, match="out of range"):
            batch_dist_query(labeling, [(0, n)])

    def test_small_batch_negative_is_clear(self, world):
        """Negative ids must not wrap around to valid vertices."""
        _g, labeling, _index, _engine = world
        with pytest.raises(IndexError, match="out of range"):
            batch_dist_query(labeling, [(-1, 2)])

    def test_large_batch_out_of_range_is_clear(self, world):
        _g, labeling, _index, _engine = world
        n = labeling.num_vertices
        pairs = [(0, 1)] * 50 + [(n + 3, 0)]
        with pytest.raises(IndexError, match="out of range"):
            batch_dist_query(labeling, pairs)


class TestScalarRangeCheck:
    """The scalar entry points raise like :func:`validate_pairs` instead
    of wrapping a negative id around to vertex ``n - 1``."""

    BAD = [(-1, 5), (5, -1), (-1, -1), (0, 18), (18, 0)]

    @pytest.mark.parametrize("pair", BAD)
    def test_dist_query_on_both_backends_and_tiers(self, world, pair):
        _g, labeling, _index, _engine = world
        backends = [labeling.copy().thaw(), labeling.copy().freeze()]
        for tier in ("numpy", "auto"):
            with kernels.use_tier(tier):
                for lab in backends:
                    with pytest.raises(IndexError, match="out of range"):
                        dist_query(lab, *pair)

    @pytest.mark.parametrize("pair", BAD)
    def test_engine_distance(self, world, pair):
        g, _labeling, _index, engine = world
        edge = next(iter(g.edges()))
        with pytest.raises(IndexError, match="out of range"):
            engine.distance(*pair, edge)
        with pytest.raises(IndexError, match="out of range"):
            engine.distance_with_case(*pair, edge)


class TestEngineBatchQuery:
    def _edge(self, world):
        g = world[0]
        return next(iter(g.edges()))

    def test_empty_pairs(self, world):
        _g, _labeling, _index, engine = world
        out = engine.batch_query(self._edge(world), [])
        assert out.shape == (0,)

    def test_all_self_pairs(self, world):
        g, _labeling, _index, engine = world
        pairs = [(v, v) for v in range(g.num_vertices)]
        assert (engine.batch_query(self._edge(world), pairs) == 0.0).all()

    def test_out_of_range_raises_index_error(self, world):
        g, _labeling, _index, engine = world
        with pytest.raises(IndexError, match="out of range"):
            engine.batch_query(self._edge(world), [(0, g.num_vertices)])

    def test_negative_raises_index_error(self, world):
        """Before the fix a negative id wrapped through searchsorted
        membership and produced a silently wrong distance."""
        _g, _labeling, _index, engine = world
        with pytest.raises(IndexError, match="out of range"):
            engine.batch_query(self._edge(world), [(-2, 1), (0, 1)])

    def test_wrong_shape_raises_value_error(self, world):
        _g, _labeling, _index, engine = world
        with pytest.raises(ValueError, match="shape"):
            engine.batch_query(self._edge(world), [1, 2])

    def test_matches_scalar_on_duplicates(self, world):
        g, _labeling, _index, engine = world
        edge = self._edge(world)
        pairs = [(0, 5), (0, 5), (5, 0), (3, 3)]
        batch = engine.batch_query(edge, pairs)
        for got, (s, t) in zip(batch, pairs):
            assert got == engine.distance(s, t, edge)
