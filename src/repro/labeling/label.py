"""Label data structures for 2-hop distance labelings.

Internally hubs are stored as **ranks** (positions in the vertex
ordering), not vertex ids: every algorithm in the paper compares hubs by
``σ``, and rank-keyed labels make the well-ordering property a simple
"sorted, all entries < my own rank" invariant and distance queries a merge
join of two ascending arrays.  The public accessors translate back to
vertex ids for display.

Storage backends
----------------

A :class:`Labeling` has two interchangeable representations:

* **thawed** (the construction form) — per-vertex Python lists
  ``hub_ranks[v]`` / ``hub_dists[v]``; cheap appends, the form every
  builder (PLL, ISL, dynamic maintenance) writes into.
* **frozen** (the query form) — three flat numpy arrays in CSR style:
  ``offsets`` (``int64``, length ``n+1``), ``hubs_flat`` and
  ``dists_flat`` (length ``total_entries``), where ``L(v)`` occupies
  ``hubs_flat[offsets[v]:offsets[v+1]]``.  This is the cache-friendly layout
  of Akiba et al.'s PLL implementation and the substrate the vectorized
  batch queries (:func:`repro.labeling.query.batch_dist_query`) run on.

:meth:`Labeling.freeze` converts lists → arrays in place (dropping the
lists); :meth:`Labeling.thaw` converts back.  While frozen, ``hub_ranks``
and ``hub_dists`` are read-only row views that materialize each row as a
fresh Python list, so every read path (scalar queries, verification,
serialization, path extraction) works identically on both backends.
Mutating code must call :meth:`~Labeling.thaw` first — assigning into a
frozen row view raises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import LabelingError
from repro.order.ordering import VertexOrdering


@dataclass(frozen=True)
class LabelEntry:
    """One ``(hub vertex, distance)`` pair as presented to users."""

    hub: int
    distance: int


class _FlatRows:
    """Read-only per-vertex row view over a frozen (offsets, data) pair.

    ``rows[v]`` materializes row ``v`` as a fresh Python list, which keeps
    list-era call sites (``.index``, slicing, iteration, JSON encoding)
    working unchanged against the flat arrays.  Writes are rejected: a
    frozen labeling must be thawed before mutation.
    """

    __slots__ = ("offsets", "data")

    def __init__(self, offsets: np.ndarray, data: np.ndarray) -> None:
        self.offsets = offsets
        self.data = data

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def __getitem__(self, v: int) -> List[int]:
        return self.data[self.offsets[v] : self.offsets[v + 1]].tolist()

    def __setitem__(self, v: int, value) -> None:
        raise LabelingError(
            "labeling is frozen (flat numpy backend); call thaw() before mutating"
        )

    def __iter__(self) -> Iterator[List[int]]:
        for v in range(len(self)):
            yield self[v]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _FlatRows):
            return bool(
                np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.data, other.data)
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self) and all(
                self[v] == list(other[v]) for v in range(len(self))
            )
        return NotImplemented


class Labeling:
    """A 2-hop distance labeling bound to a vertex ordering.

    Per vertex ``v`` the labeling keeps two parallel sequences:
    ``hub_ranks[v]`` (strictly ascending ranks) and ``hub_dists[v]``.
    Construction code appends entries in ascending-rank rounds, so the
    invariant holds for free; :meth:`validate` re-checks it.  See the
    module docstring for the thawed (list) vs frozen (flat numpy)
    backends.
    """

    __slots__ = (
        "ordering",
        "hub_ranks",
        "hub_dists",
        "offsets",
        "hubs_flat",
        "dists_flat",
        "_batch_cache",
        "__weakref__",
    )

    def __init__(
        self,
        ordering: VertexOrdering,
        hub_ranks: Sequence[List[int]],
        hub_dists: Sequence[List[int]],
    ) -> None:
        if len(hub_ranks) != len(ordering) or len(hub_dists) != len(ordering):
            raise LabelingError(
                f"label arrays cover {len(hub_ranks)}/{len(hub_dists)} vertices, "
                f"ordering has {len(ordering)}"
            )
        self.ordering = ordering
        self.hub_ranks: List[List[int]] = list(hub_ranks)
        self.hub_dists: List[List[int]] = list(hub_dists)
        self.offsets: Optional[np.ndarray] = None
        self.hubs_flat: Optional[np.ndarray] = None
        self.dists_flat: Optional[np.ndarray] = None
        #: the compiled hub join bound to the flat arrays (owned by
        #: :mod:`repro.labeling.query`); valid only while frozen.
        self._batch_cache = None

    # -- construction helpers ---------------------------------------------

    @classmethod
    def empty(cls, ordering: VertexOrdering) -> "Labeling":
        """A labeling with no entries (used by builders)."""
        n = len(ordering)
        return cls(ordering, [[] for _ in range(n)], [[] for _ in range(n)])

    @classmethod
    def from_flat(
        cls,
        ordering: VertexOrdering,
        offsets: np.ndarray,
        hubs: np.ndarray,
        dists: np.ndarray,
    ) -> "Labeling":
        """Build a labeling directly in the frozen form (zero-copy).

        ``offsets`` must have length ``n+1``, start at ``0``, never
        decrease and end at ``len(hubs) == len(dists)``: every store load
        comes through here, and the compiled hub join reads label slices
        at these offsets unchecked.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        hubs = np.asarray(hubs)
        dists = np.asarray(dists)
        n = len(ordering)
        if len(offsets) != n + 1 or (n >= 0 and (len(offsets) == 0 or offsets[0] != 0)):
            raise LabelingError(
                f"offsets length {len(offsets)} does not match {n} vertices"
            )
        if offsets[-1] != len(hubs) or len(hubs) != len(dists):
            raise LabelingError(
                "flat arrays inconsistent: offsets[-1] "
                f"{int(offsets[-1])}, hubs {len(hubs)}, dists {len(dists)}"
            )
        if np.any(np.diff(offsets) < 0):
            raise LabelingError("offsets decrease: label slices overlap")
        labeling = cls.empty(ordering)
        labeling.offsets = offsets
        labeling.hubs_flat = hubs
        labeling.dists_flat = dists
        labeling.hub_ranks = _FlatRows(offsets, hubs)
        labeling.hub_dists = _FlatRows(offsets, dists)
        return labeling

    # -- backend lifecycle -------------------------------------------------

    @property
    def frozen(self) -> bool:
        """Whether the flat numpy backend is active."""
        return self.offsets is not None

    def freeze(self) -> "Labeling":
        """Switch to the flat numpy backend in place (idempotent).

        Concatenates the per-vertex lists into ``offsets``/``hubs``/
        ``dists`` and replaces ``hub_ranks``/``hub_dists`` with read-only
        row views.  Distances freeze to ``int32`` when every value is
        integral (the unweighted case) and ``float64`` otherwise, so the
        weighted PLL variant freezes losslessly too.  Returns ``self``.
        """
        if self.frozen:
            return self
        n = len(self.hub_ranks)
        sizes = np.fromiter(
            (len(r) for r in self.hub_ranks), count=n, dtype=np.int64
        )
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        total = int(offsets[-1])
        hubs = np.empty(total, dtype=np.int32)
        dists_f = np.empty(total, dtype=np.float64)
        pos = 0
        for ranks_v, dists_v in zip(self.hub_ranks, self.hub_dists):
            k = len(ranks_v)
            hubs[pos : pos + k] = ranks_v
            dists_f[pos : pos + k] = dists_v
            pos += k
        as_int = dists_f.astype(np.int64)
        if np.array_equal(as_int, dists_f):
            dists = as_int.astype(np.int32) if total == 0 or (
                as_int.size and abs(as_int).max() < 2**31
            ) else as_int
        else:
            dists = dists_f
        self.offsets = offsets
        self.hubs_flat = hubs
        self.dists_flat = dists
        self.hub_ranks = _FlatRows(offsets, hubs)
        self.hub_dists = _FlatRows(offsets, dists)
        return self

    def thaw(self) -> "Labeling":
        """Switch back to the per-vertex list backend (idempotent).

        Rebuilds the Python lists from the flat arrays and drops the
        arrays; call before any in-place mutation.  Returns ``self``.
        """
        if not self.frozen:
            return self
        self.hub_ranks = [row for row in self.hub_ranks]
        self.hub_dists = [row for row in self.hub_dists]
        self.offsets = None
        self.hubs_flat = None
        self.dists_flat = None
        self._batch_cache = None
        return self

    # -- accessors ----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of labeled vertices."""
        return len(self.hub_ranks)

    def label_size(self, v: int) -> int:
        """Number of entries in ``L(v)``."""
        if self.offsets is not None:
            return int(self.offsets[v + 1] - self.offsets[v])
        return len(self.hub_ranks[v])

    def total_entries(self) -> int:
        """Total label entries over all vertices."""
        if self.offsets is not None:
            return int(self.offsets[-1])
        return sum(len(ranks) for ranks in self.hub_ranks)

    def entries(self, v: int) -> List[LabelEntry]:
        """``L(v)`` as user-facing ``(hub vertex id, distance)`` pairs."""
        vertex = self.ordering.vertex
        return [
            LabelEntry(vertex(r), d)
            for r, d in zip(self.hub_ranks[v], self.hub_dists[v])
        ]

    def hubs(self, v: int) -> List[int]:
        """Hub vertex ids of ``L(v)``, ascending by rank."""
        vertex = self.ordering.vertex
        return [vertex(r) for r in self.hub_ranks[v]]

    def iter_raw(self) -> Iterator[Tuple[int, List[int], List[int]]]:
        """Yield ``(vertex, hub_ranks, hub_dists)`` triples (internal form)."""
        for v, (ranks, dists) in enumerate(zip(self.hub_ranks, self.hub_dists)):
            yield v, ranks, dists

    # -- invariants -----------------------------------------------------------

    def validate(self) -> List[str]:
        """Check structural invariants; returns violations (empty == ok)."""
        problems: List[str] = []
        n = self.num_vertices
        if self.offsets is not None:
            if int(self.offsets[0]) != 0 or np.any(np.diff(self.offsets) < 0):
                problems.append("offsets not non-decreasing from 0")
        for v in range(n):
            ranks = self.hub_ranks[v]
            dists = self.hub_dists[v]
            if len(ranks) != len(dists):
                problems.append(f"L({v}): rank/dist length mismatch")
                continue
            own = self.ordering.rank(v)
            for i, (r, d) in enumerate(zip(ranks, dists)):
                if not 0 <= r < n:
                    problems.append(f"L({v})[{i}]: hub rank {r} out of range")
                if d < 0:
                    problems.append(f"L({v})[{i}]: negative distance {d}")
                if r > own:
                    problems.append(
                        f"L({v})[{i}]: hub rank {r} exceeds own rank {own} "
                        "(well-ordering violated)"
                    )
            if any(ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1)):
                problems.append(f"L({v}): hub ranks not strictly ascending")
        return problems

    def copy(self) -> "Labeling":
        """Deep copy (same ordering object, same backend)."""
        if self.frozen:
            return Labeling.from_flat(
                self.ordering,
                self.offsets.copy(),
                self.hubs_flat.copy(),
                self.dists_flat.copy(),
            )
        return Labeling(
            self.ordering,
            [list(r) for r in self.hub_ranks],
            [list(d) for d in self.hub_dists],
        )

    def __eq__(self, other: object) -> bool:
        """Content equality, independent of which backend either side uses."""
        if not isinstance(other, Labeling):
            return NotImplemented
        if self.ordering != other.ordering:
            return False
        if self.num_vertices != other.num_vertices:
            return False
        return all(
            self.hub_ranks[v] == other.hub_ranks[v]
            and self.hub_dists[v] == other.hub_dists[v]
            for v in range(self.num_vertices)
        )

    def __repr__(self) -> str:
        backend = "flat" if self.frozen else "lists"
        return (
            f"Labeling(n={self.num_vertices}, "
            f"entries={self.total_entries()}, backend={backend})"
        )
