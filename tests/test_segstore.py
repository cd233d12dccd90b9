"""Segment-store round-trip and corruption coverage (ISSUE 9).

The out-of-core store must (a) rebuild an index bit-identical to the
in-RAM build and (b) refuse — with a clear :class:`StoreError` — to
answer from a store whose TOC and segment file disagree.  A corrupt
store must never produce a wrong distance; it must raise.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.core.builder import build_sief
from repro.core.index import SIEFIndex
from repro.core.segstore import (
    LABELING_FILE,
    SEGMENTS_FILE,
    TOC_FILE,
    SegmentStore,
    SegmentWriter,
    build_sief_sharded,
)
from repro.core.serialize import index_to_bytes
from repro.exceptions import FailureCaseNotIndexed, LabelingError, StoreError
from repro.graph import generators
from repro.labeling.pll import build_pll
from repro.order.strategies import by_degree


@pytest.fixture
def graph():
    return generators.erdos_renyi_gnm(40, 90, seed=11)


@pytest.fixture
def store_path(graph, tmp_path) -> Path:
    path, _report = build_sief_sharded(graph, tmp_path / "store", shard_size=7)
    return path


class TestRoundTrip:
    def test_rebuilt_index_is_bit_identical(self, graph, store_path):
        reference = build_sief(graph, build_pll(graph, by_degree(graph)))
        rebuilt = SegmentStore(store_path).to_index()
        assert index_to_bytes(rebuilt) == index_to_bytes(reference)

    def test_index_load_routes_siefseg_paths(self, graph, store_path):
        reference = build_sief(graph, build_pll(graph, by_degree(graph)))
        loaded = SIEFIndex.load(store_path)
        assert index_to_bytes(loaded) == index_to_bytes(reference)

    def test_unknown_edge_raises_not_indexed(self, store_path):
        store = SegmentStore(store_path)
        with pytest.raises(FailureCaseNotIndexed):
            store.load_case(998, 999)

    def test_case_edges_are_sorted_and_complete(self, graph, store_path):
        store = SegmentStore(store_path)
        assert store.case_edges() == sorted(graph.edges())
        assert store.num_cases == graph.num_edges

    def test_writer_rejects_out_of_order_appends(self, graph, tmp_path):
        labeling = build_pll(graph, by_degree(graph))
        index = build_sief(graph, labeling)
        cases = sorted(index.supplements.items())
        with SegmentWriter(tmp_path / "disordered", labeling) as writer:
            writer.append_case(*cases[1])
            with pytest.raises(StoreError):
                writer.append_case(*cases[0])


def _retoc(path: Path, **overrides) -> None:
    """Rewrite toc.npz with some arrays tampered."""
    toc = dict(np.load(path / TOC_FILE))
    toc.update(overrides)
    np.savez(path / TOC_FILE, **toc)


class TestCorruption:
    def test_truncated_segment_file_is_rejected_at_open(self, store_path):
        seg = store_path / SEGMENTS_FILE
        data = seg.read_bytes()
        seg.write_bytes(data[: len(data) - 16])
        with pytest.raises(StoreError, match="segment"):
            SegmentStore(store_path)

    def test_record_past_eof_is_rejected_at_load(self, store_path):
        toc = dict(np.load(store_path / TOC_FILE))
        offsets = toc["case_offsets"].copy()
        offsets[-1] += int(toc["case_lengths"][-1])
        _retoc(store_path, case_offsets=offsets)
        store = SegmentStore(store_path)
        u, v = store.case_edges()[-1]
        with pytest.raises(StoreError, match="past the end"):
            store.load_case(u, v)

    def test_offset_length_mismatch_is_rejected_at_load(self, store_path):
        toc = dict(np.load(store_path / TOC_FILE))
        lengths = toc["case_lengths"].copy()
        lengths[0] -= 8
        _retoc(store_path, case_lengths=lengths)
        store = SegmentStore(store_path)
        u, v = store.case_edges()[0]
        with pytest.raises(StoreError, match="corrupt record"):
            store.load_case(u, v)

    def test_toc_segment_edge_mismatch_is_rejected(self, store_path):
        edges = dict(np.load(store_path / TOC_FILE))["case_edges"].copy()
        keys = dict(np.load(store_path / TOC_FILE))["case_keys"].copy()
        # Swap the last edge's identity in the TOC only; the segment
        # record still carries the true edge and must contradict it.
        edges[-1] = (4000, 4001)
        keys[-1] = np.uint64((4000 << 32) | 4001)
        _retoc(store_path, case_edges=edges, case_keys=keys)
        store = SegmentStore(store_path)
        with pytest.raises(StoreError, match="mismatch"):
            store.load_case(4000, 4001)

    def test_decreasing_label_offsets_are_rejected(self, store_path):
        """The labeling member passes the first/last offset checks but
        its offsets decrease, which would send the hub join outside the
        label arrays."""
        path = store_path / LABELING_FILE
        arrays = dict(np.load(path))
        arrays["offsets"][1] = 10**9
        np.savez(path, **arrays)
        for mmap in (True, False):
            with pytest.raises(LabelingError, match="offsets"):
                SegmentStore(store_path).labeling(mmap=mmap)

    def test_missing_toc_is_rejected(self, store_path):
        (store_path / TOC_FILE).unlink()
        with pytest.raises(StoreError):
            SegmentStore(store_path)

    def test_wrong_format_version_is_rejected(self, store_path):
        _retoc(store_path, format_version=np.int64(99))
        with pytest.raises(StoreError, match="version"):
            SegmentStore(store_path)
