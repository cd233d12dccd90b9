"""Frozen SIEF index storage: flat-array npz with true memory-mapped loads.

The legacy binary format (:mod:`repro.core.serialize`) reconstructs
per-vertex Python lists on load — fine for CLI round-trips, hopeless for
a serving daemon that wants N worker processes sharing one read-only
copy of a multi-gigabyte index.  This module stores the *frozen* form of
a :class:`~repro.core.index.SIEFIndex` as a dict of flat numpy arrays:

* the labeling's CSR triplet (``offsets``/``hubs``/``dists``) plus the
  ordering permutation ``vertex_at``;
* every per-edge supplement concatenated into one global CSR-of-CSRs:
  ``sup_case_offsets`` slices ``sup_vertices``/``sup_entry_offsets`` per
  failure case, and ``sup_entry_offsets`` slices ``sup_ranks``/
  ``sup_dists`` per affected vertex;
* the affected sides likewise (``side_u_offsets``/``side_u`` etc.).

:func:`save_index_npz` / :func:`load_index_npz` write and read the
packed arrays (:func:`pack_index` / :func:`unpack_index`) as a standard
``.npz`` file.  It is saved **uncompressed** by default, which is what
makes ``mmap_mode="r"`` possible: npz members are stored contiguously
inside the zip, so the loader maps each array straight out of the file
with :class:`numpy.memmap` (zero copy, page-cache shared across
processes) instead of reading it through :func:`numpy.load`.

Loads produce :class:`MappedSupplement` views — duck-typed stand-ins for
:class:`~repro.core.supplemental.SupplementalIndex` whose label arrays
slice the backing buffer directly and whose affected-side tuples
materialize lazily on first query.
"""

from __future__ import annotations

import struct
import zipfile
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.affected import AffectedVertices
from repro.core.supplemental import FlatSupplement, SupplementalLabels
from repro.exceptions import SerializationError
from repro.labeling.label import Labeling
from repro.order.ordering import VertexOrdering

PathLike = Union[str, Path]

NPZ_INDEX_FORMAT_VERSION = 1
"""Version stamped into every packed store (checked on unpack)."""


# ---------------------------------------------------------------------------
# Mapped supplement: SupplementalIndex duck type over packed arrays
# ---------------------------------------------------------------------------


class MappedSupplement:
    """Read-only ``SI(u, v)`` view over slices of a packed store.

    Implements the surface :class:`~repro.core.query.SIEFQueryEngine`
    and :mod:`repro.core.serialize` touch — ``affected``, ``get``,
    ``flat``, ``edge``, ``labels``/``iter_labels``, ``total_entries`` —
    without ever copying the rank/dist arrays: ``flat()`` returns views
    into the backing buffer (file mmap or in-memory arrays).  The affected-side tuples and the per-vertex ``labels``
    dict are built lazily and cached; for batch-path serving they are
    never needed at all beyond the sides.
    """

    __slots__ = (
        "_u", "_v", "_disc", "_side_u", "_side_v",
        "_vertices", "_entry_offsets", "_ranks", "_dists",
        "_affected", "_flat", "_labels", "search_expanded",
    )

    def __init__(
        self,
        u: int,
        v: int,
        disconnected: bool,
        side_u: np.ndarray,
        side_v: np.ndarray,
        vertices: np.ndarray,
        entry_offsets: np.ndarray,
        ranks: np.ndarray,
        dists: np.ndarray,
    ) -> None:
        self._u = u
        self._v = v
        self._disc = disconnected
        self._side_u = side_u
        self._side_v = side_v
        self._vertices = vertices
        self._entry_offsets = entry_offsets
        self._ranks = ranks
        self._dists = dists
        self._affected: Optional[AffectedVertices] = None
        self._flat: Optional[FlatSupplement] = None
        self._labels: Optional[Dict[int, SupplementalLabels]] = None
        self.search_expanded = 0

    # -- SupplementalIndex surface ----------------------------------------

    @property
    def edge(self) -> Tuple[int, int]:
        return (self._u, self._v)

    @property
    def affected(self) -> AffectedVertices:
        av = self._affected
        if av is None:
            av = AffectedVertices(
                u=self._u,
                v=self._v,
                side_u=tuple(int(x) for x in self._side_u),
                side_v=tuple(int(x) for x in self._side_v),
                disconnected=self._disc,
            )
            self._affected = av
        return av

    def flat(self) -> FlatSupplement:
        flat = self._flat
        if flat is None:
            # Rebase the entry offsets to this case's slice.  Only the
            # (small) offsets array is rewritten; ranks/dists stay views
            # of the backing buffer.
            offsets = np.asarray(self._entry_offsets, dtype=np.int64)
            offsets = offsets - offsets[0] if offsets.size else offsets
            flat = FlatSupplement(
                np.asarray(self._vertices, dtype=np.int64),
                offsets,
                self._ranks,
                self._dists,
            )
            self._flat = flat
        return flat

    def get(self, vertex: int) -> SupplementalLabels:
        flat = self.flat()
        pos = int(np.searchsorted(flat.vertices, vertex))
        if pos >= flat.vertices.size or flat.vertices[pos] != vertex:
            return _EMPTY
        lo, hi = int(flat.offsets[pos]), int(flat.offsets[pos + 1])
        return SupplementalLabels(flat.ranks[lo:hi], flat.dists[lo:hi])

    @property
    def labels(self) -> Dict[int, SupplementalLabels]:
        """Materialized per-vertex labels (built once, on first access)."""
        labels = self._labels
        if labels is None:
            flat = self.flat()
            labels = {}
            for i, vertex in enumerate(flat.vertices):
                lo, hi = int(flat.offsets[i]), int(flat.offsets[i + 1])
                labels[int(vertex)] = SupplementalLabels(
                    [int(r) for r in flat.ranks[lo:hi]],
                    [int(d) for d in flat.dists[lo:hi]],
                )
            self._labels = labels
        return labels

    def iter_labels(self) -> Iterator[Tuple[int, SupplementalLabels]]:
        labels = self.labels
        for vertex in sorted(labels):
            yield vertex, labels[vertex]

    def total_entries(self) -> int:
        return int(len(self._ranks))

    def __repr__(self) -> str:
        return (
            f"MappedSupplement(edge={self.edge}, "
            f"entries={self.total_entries()})"
        )


_EMPTY = SupplementalLabels([], [])


# ---------------------------------------------------------------------------
# Pack / unpack
# ---------------------------------------------------------------------------


def pack_index(index) -> Dict[str, np.ndarray]:
    """Flatten a frozen :class:`SIEFIndex` into named flat arrays."""
    labeling = index.labeling
    if labeling.offsets is None:
        labeling.freeze()
    cases = list(index.iter_cases())
    m = len(cases)

    case_edges = np.zeros((m, 2), dtype=np.int64)
    case_disc = np.zeros(m, dtype=np.uint8)
    side_u_offsets = np.zeros(m + 1, dtype=np.int64)
    side_v_offsets = np.zeros(m + 1, dtype=np.int64)
    sup_case_offsets = np.zeros(m + 1, dtype=np.int64)

    side_u_parts: List[np.ndarray] = []
    side_v_parts: List[np.ndarray] = []
    sup_vertices_parts: List[np.ndarray] = []
    entry_sizes: List[int] = []
    ranks_parts: List[np.ndarray] = []
    dists_parts: List[np.ndarray] = []

    for i, (edge, si) in enumerate(cases):
        flat = si.flat()
        case_edges[i] = edge
        case_disc[i] = 1 if si.affected.disconnected else 0
        side_u_parts.append(np.asarray(si.affected.side_u, dtype=np.int64))
        side_v_parts.append(np.asarray(si.affected.side_v, dtype=np.int64))
        side_u_offsets[i + 1] = side_u_offsets[i] + len(si.affected.side_u)
        side_v_offsets[i + 1] = side_v_offsets[i] + len(si.affected.side_v)
        sup_vertices_parts.append(flat.vertices)
        sup_case_offsets[i + 1] = sup_case_offsets[i] + len(flat.vertices)
        entry_sizes.extend(
            int(flat.offsets[j + 1] - flat.offsets[j])
            for j in range(len(flat.vertices))
        )
        ranks_parts.append(flat.ranks)
        dists_parts.append(flat.dists)

    entry_offsets = np.zeros(len(entry_sizes) + 1, dtype=np.int64)
    if entry_sizes:
        np.cumsum(np.asarray(entry_sizes, dtype=np.int64), out=entry_offsets[1:])

    def _cat(parts: List[np.ndarray], dtype) -> np.ndarray:
        if not parts:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(parts).astype(dtype, copy=False)

    return {
        "format_version": np.int64(NPZ_INDEX_FORMAT_VERSION),
        # -- labeling --
        "vertex_at": np.asarray(
            labeling.ordering.sequence(), dtype=np.int32
        ),
        "offsets": np.asarray(labeling.offsets, dtype=np.int64),
        "hubs": np.asarray(labeling.hubs_flat, dtype=np.int32),
        "dists": np.asarray(labeling.dists_flat, dtype=np.int32),
        # -- failure cases --
        "case_edges": case_edges,
        "case_disc": case_disc,
        "side_u_offsets": side_u_offsets,
        "side_u": _cat(side_u_parts, np.int64),
        "side_v_offsets": side_v_offsets,
        "side_v": _cat(side_v_parts, np.int64),
        # -- supplements (CSR-of-CSRs) --
        "sup_case_offsets": sup_case_offsets,
        "sup_vertices": _cat(sup_vertices_parts, np.int64),
        "sup_entry_offsets": entry_offsets,
        "sup_ranks": _cat(ranks_parts, np.int32),
        "sup_dists": _cat(dists_parts, np.int32),
    }


_REQUIRED_KEYS = (
    "format_version", "vertex_at", "offsets", "hubs", "dists",
    "case_edges", "case_disc", "side_u_offsets", "side_u",
    "side_v_offsets", "side_v", "sup_case_offsets", "sup_vertices",
    "sup_entry_offsets", "sup_ranks", "sup_dists",
)


def unpack_index(arrays: Mapping[str, np.ndarray]):
    """Rebuild a :class:`SIEFIndex` over packed arrays — zero label copies.

    ``arrays`` may come from :func:`numpy.load` or the mmap loader; the
    returned index's supplement rank/dist arrays are views into whatever
    buffers back it.
    """
    from repro.core.index import SIEFIndex

    missing = [k for k in _REQUIRED_KEYS if k not in arrays]
    if missing:
        raise SerializationError(
            f"packed SIEF store is missing arrays: {missing}"
        )
    version = int(np.asarray(arrays["format_version"]).reshape(()))
    if version != NPZ_INDEX_FORMAT_VERSION:
        raise SerializationError(
            f"unsupported SIEF npz format version {version}"
        )
    try:
        ordering = VertexOrdering([int(v) for v in arrays["vertex_at"]])
        labeling = Labeling.from_flat(
            ordering, arrays["offsets"], arrays["hubs"], arrays["dists"]
        )
        index = SIEFIndex(labeling)
        case_edges = arrays["case_edges"]
        case_disc = arrays["case_disc"]
        suo, su = arrays["side_u_offsets"], arrays["side_u"]
        svo, sv = arrays["side_v_offsets"], arrays["side_v"]
        sco = arrays["sup_case_offsets"]
        sup_vertices = arrays["sup_vertices"]
        seo = arrays["sup_entry_offsets"]
        sup_ranks, sup_dists = arrays["sup_ranks"], arrays["sup_dists"]
        for i in range(len(case_edges)):
            u, v = int(case_edges[i, 0]), int(case_edges[i, 1])
            vlo, vhi = int(sco[i]), int(sco[i + 1])
            # Entry offsets for this case's vertices: slice of length
            # vhi - vlo + 1 (empty-vertex cases take the degenerate
            # one-element slice at vlo).
            entry_off = seo[vlo : vhi + 1]
            elo = int(entry_off[0]) if entry_off.size else 0
            ehi = int(entry_off[-1]) if entry_off.size else 0
            index.supplements[(u, v)] = MappedSupplement(
                u, v,
                bool(case_disc[i]),
                su[int(suo[i]) : int(suo[i + 1])],
                sv[int(svo[i]) : int(svo[i + 1])],
                sup_vertices[vlo:vhi],
                entry_off,
                sup_ranks[elo:ehi],
                sup_dists[elo:ehi],
            )
    except (KeyError, ValueError, IndexError) as exc:
        raise SerializationError(f"bad packed SIEF store: {exc}") from exc
    return index


# ---------------------------------------------------------------------------
# npz file transport
# ---------------------------------------------------------------------------


def save_index_npz(index, path: PathLike, compress: bool = False) -> None:
    """Write the packed store to ``path`` as an npz archive.

    Uncompressed by default — compressed members cannot be memory-mapped
    (the loader would have to inflate them into private pages, defeating
    the one-physical-copy property).  Pass ``compress=True`` for archival
    copies that will only ever be loaded with ``mmap_mode=None``.
    """
    arrays = pack_index(index)
    if compress:
        np.savez_compressed(str(path), **arrays)
    else:
        np.savez(str(path), **arrays)


def _memmap_npz(path: Path, mode: str) -> Dict[str, np.ndarray]:
    """Map every member of an *uncompressed* npz straight from the file.

    npz is a zip; stored (not deflated) members sit contiguously, so each
    array is a :class:`numpy.memmap` at ``local header + npy header``
    into the archive itself.  Compressed members raise — re-save with
    ``compress=False``.
    """
    out: Dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            if info.compress_type != zipfile.ZIP_STORED:
                raise SerializationError(
                    f"npz member {info.filename!r} is compressed and cannot "
                    "be memory-mapped; re-save with compress=False or load "
                    "with mmap_mode=None"
                )
            with zf.open(info) as member:
                version = np.lib.format.read_magic(member)
                if version == (1, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_1_0(member)
                    )
                elif version == (2, 0):
                    shape, fortran, dtype = (
                        np.lib.format.read_array_header_2_0(member)
                    )
                else:  # pragma: no cover - numpy only writes 1.0/2.0
                    raise SerializationError(
                        f"unsupported npy header version {version} "
                        f"in member {info.filename!r}"
                    )
                header_len = member.tell()
            if int(np.prod(shape)) == 0 or shape == ():
                # mmap cannot express zero-length (or 0-d) windows; these
                # arrays are bytes-sized, so a plain read loses nothing.
                with zf.open(info) as member:
                    out[name] = np.lib.format.read_array(member)
                continue
            # Absolute data offset: zip local file header (30 bytes +
            # name + extra) then the npy header we just parsed.
            with open(path, "rb") as fh:
                fh.seek(info.header_offset)
                lh = fh.read(30)
            if lh[:4] != b"PK\x03\x04":
                raise SerializationError(
                    f"corrupt zip local header for {info.filename!r}"
                )
            name_len, extra_len = struct.unpack("<HH", lh[26:30])
            data_offset = (
                info.header_offset + 30 + name_len + extra_len + header_len
            )
            out[name] = np.memmap(
                path,
                dtype=dtype,
                mode=mode,
                offset=data_offset,
                shape=shape,
                order="F" if fortran else "C",
            )
    return out


def load_index_npz(path: PathLike, mmap_mode: Optional[str] = None):
    """Load an index written by :func:`save_index_npz`.

    With ``mmap_mode="r"`` every non-trivial array is a read-only
    :class:`numpy.memmap` into the archive: nothing is copied at load
    time, and N processes loading the same file share one physical copy
    through the page cache.  With ``mmap_mode=None`` arrays are read
    into process-private memory (works for compressed archives too).
    """
    path = Path(path)
    if not path.exists():
        raise SerializationError(f"no such SIEF npz store: {path}")
    if mmap_mode is not None:
        if mmap_mode != "r":
            raise ValueError(
                f"mmap_mode must be 'r' or None, got {mmap_mode!r} "
                "(the packed store is read-only by design)"
            )
        try:
            arrays = _memmap_npz(path, mmap_mode)
        except zipfile.BadZipFile as exc:
            raise SerializationError(f"bad npz archive {path}: {exc}") from exc
        return unpack_index(arrays)
    try:
        with np.load(str(path)) as doc:
            arrays = {k: doc[k] for k in doc.files}
    except (OSError, zipfile.BadZipFile, ValueError) as exc:
        raise SerializationError(f"bad npz archive {path}: {exc}") from exc
    return unpack_index(arrays)
