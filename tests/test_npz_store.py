"""The frozen npz store: mmap zero-copy, parity, corruption.

The serving daemon's whole memory story rests on one claim: loading an
index with ``mmap_mode="r"`` maps the label arrays straight out of the
file, so N worker processes share one physical copy through the page
cache.  These tests pin that claim down — OWNDATA flags, memmap bases,
bit-identical answers, byte-identical re-serialization — plus the
failure modes (compressed stores, bad files, corrupt label offsets).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.builder import SIEFBuilder
from repro.core.index import SIEFIndex
from repro.core.npzstore import (
    load_index_npz,
    pack_index,
    save_index_npz,
    unpack_index,
)
from repro.core.query import SIEFQueryEngine
from repro.core.serialize import index_to_bytes
from repro.exceptions import LabelingError, SerializationError
from repro.graph import generators


def random_graph(seed: int, n: int = 24, m: int = 40):
    return generators.erdos_renyi_gnm(n, m, seed=seed)


def build_index(graph) -> SIEFIndex:
    index, _report = SIEFBuilder(graph).build()
    return index.freeze()


@pytest.fixture(scope="module")
def er_index() -> SIEFIndex:
    return build_index(random_graph(seed=11, n=30, m=55))


def all_pairs_sample(n: int, seed: int = 0, k: int = 60) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n, size=(k, 2), dtype=np.int64)


def memmap_root(arr):
    """The np.memmap at the bottom of a view chain, or None."""
    while isinstance(arr, np.ndarray):
        if isinstance(arr, np.memmap):
            return arr
        arr = arr.base
    return None


def assert_same_answers(a: SIEFIndex, b: SIEFIndex, seed: int = 0) -> None:
    ea, eb = SIEFQueryEngine(a), SIEFQueryEngine(b)
    pairs = all_pairs_sample(a.labeling.num_vertices, seed)
    for edge in sorted(a.supplements):
        assert np.array_equal(ea.batch_query(edge, pairs), eb.batch_query(edge, pairs))


# ---------------------------------------------------------------------------
# round-trip parity
# ---------------------------------------------------------------------------


def test_npz_roundtrip_in_memory(tmp_path, er_index):
    path = tmp_path / "idx.npz"
    save_index_npz(er_index, path)
    loaded = load_index_npz(path)
    assert loaded.num_cases == er_index.num_cases
    assert loaded.labeling.num_vertices == er_index.labeling.num_vertices
    assert_same_answers(er_index, loaded)


def test_npz_roundtrip_serialize_parity(tmp_path, er_index):
    """Thawing a store must reproduce the legacy format byte-for-byte."""
    path = tmp_path / "idx.npz"
    save_index_npz(er_index, path)
    assert index_to_bytes(load_index_npz(path)) == index_to_bytes(er_index)
    assert index_to_bytes(
        load_index_npz(path, mmap_mode="r")
    ) == index_to_bytes(er_index)


def test_pack_unpack_without_disk(er_index):
    rebuilt = unpack_index(pack_index(er_index))
    assert_same_answers(er_index, rebuilt)


def test_save_via_index_method_and_suffix_routing(tmp_path, er_index):
    path = tmp_path / "idx.npz"
    er_index.save_npz(path)
    loaded = SIEFIndex.load(path, mmap_mode="r")
    assert_same_answers(er_index, loaded)
    with pytest.raises(ValueError, match="mmap_mode"):
        SIEFIndex.load(tmp_path / "idx.sief", mmap_mode="r")


def test_compressed_roundtrip_but_no_mmap(tmp_path, er_index):
    path = tmp_path / "idx.npz"
    save_index_npz(er_index, path, compress=True)
    assert_same_answers(er_index, load_index_npz(path))
    with pytest.raises(SerializationError, match="compress"):
        load_index_npz(path, mmap_mode="r")


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "junk.npz"
    path.write_bytes(b"definitely not a zip archive")
    with pytest.raises(SerializationError):
        load_index_npz(path)
    with pytest.raises(SerializationError):
        load_index_npz(path, mmap_mode="r")


def test_decreasing_label_offsets_are_rejected(tmp_path, er_index):
    """Offsets that still start at 0 and end at len(hubs) but decrease
    in between would send the hub join outside the label arrays."""
    arrays = pack_index(er_index)
    offsets = arrays["offsets"].copy()
    offsets[1] = 10**9
    arrays["offsets"] = offsets
    path = tmp_path / "corrupt.npz"
    np.savez(str(path), **arrays)
    for mmap_mode in (None, "r"):
        with pytest.raises(LabelingError, match="offsets"):
            load_index_npz(path, mmap_mode=mmap_mode)


def test_mmap_mode_validation(tmp_path, er_index):
    path = tmp_path / "idx.npz"
    save_index_npz(er_index, path)
    with pytest.raises(ValueError, match="mmap_mode"):
        load_index_npz(path, mmap_mode="r+")


# ---------------------------------------------------------------------------
# the zero-copy claim
# ---------------------------------------------------------------------------


def test_mmap_load_does_not_copy_label_arrays(tmp_path, er_index):
    path = tmp_path / "idx.npz"
    save_index_npz(er_index, path)
    mapped = load_index_npz(path, mmap_mode="r")
    lab = mapped.labeling
    for arr in (lab.hubs_flat, lab.dists_flat, lab.offsets):
        assert not arr.flags["OWNDATA"]
        assert arr.base is not None
        assert memmap_root(arr) is not None, "label array is not file-backed"


def test_mmap_supplement_views_are_file_backed(tmp_path, er_index):
    path = tmp_path / "idx.npz"
    save_index_npz(er_index, path)
    mapped = load_index_npz(path, mmap_mode="r")
    edge = next(iter(sorted(mapped.supplements)))
    flat = mapped.supplements[edge].flat()
    for arr in (flat.ranks, flat.dists):
        if arr.size == 0:
            continue
        assert not arr.flags["OWNDATA"]
        assert memmap_root(arr) is not None


def test_two_readers_share_one_physical_copy(tmp_path, er_index):
    """Two independent mmap loads must resolve to the same file pages."""
    path = tmp_path / "idx.npz"
    save_index_npz(er_index, path)
    a = load_index_npz(path, mmap_mode="r")
    b = load_index_npz(path, mmap_mode="r")

    ra = memmap_root(a.labeling.hubs_flat)
    rb = memmap_root(b.labeling.hubs_flat)
    assert ra is not None and rb is not None
    assert ra.filename == rb.filename
    # Same file offset -> the kernel backs both with the same page-cache
    # pages; nothing was copied into either reader's heap.
    assert ra.offset == rb.offset
    assert_same_answers(a, b)


def test_mmap_arrays_are_read_only(tmp_path, er_index):
    path = tmp_path / "idx.npz"
    save_index_npz(er_index, path)
    mapped = load_index_npz(path, mmap_mode="r")
    with pytest.raises((ValueError, RuntimeError)):
        mapped.labeling.hubs_flat[0] = 99


def test_mmap_answers_identical_scalar_and_batch(tmp_path):
    graph = generators.watts_strogatz(26, 4, 0.2, seed=5)
    index = build_index(graph)
    path_ = None
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        path_ = os.path.join(d, "idx.npz")
        save_index_npz(index, path_)
        mapped = load_index_npz(path_, mmap_mode="r")
        base_eng = SIEFQueryEngine(index)
        map_eng = SIEFQueryEngine(mapped)
        pairs = all_pairs_sample(graph.num_vertices, seed=2, k=40)
        for edge in sorted(index.supplements)[:12]:
            assert np.array_equal(
                base_eng.batch_query(edge, pairs),
                map_eng.batch_query(edge, pairs),
            )
            for s, t in pairs[:8]:
                x = base_eng.distance(int(s), int(t), edge)
                y = map_eng.distance(int(s), int(t), edge)
                assert x == y or (math.isinf(x) and math.isinf(y))


# ---------------------------------------------------------------------------
# tiny/degenerate shapes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "graph",
    [
        generators.path_graph(2),
        generators.star_graph(4),
        generators.cycle_graph(5),
        generators.compose_disjoint(
            [generators.path_graph(3), generators.path_graph(2)]
        ),
    ],
    ids=["path2", "star4", "cycle5", "disconnected"],
)
def test_small_shapes_roundtrip(tmp_path, graph):
    index = build_index(graph)
    path = tmp_path / "idx.npz"
    save_index_npz(index, path)
    for mode in (None, "r"):
        loaded = load_index_npz(path, mmap_mode=mode)
        assert_same_answers(index, loaded, seed=3)
        assert index_to_bytes(loaded) == index_to_bytes(index)
