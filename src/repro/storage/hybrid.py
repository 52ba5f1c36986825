"""Hybrid storage — the paper's device-side layout (Sections 4.1-4.2).

Design, following the paper:

* Spatial coordinates are stored inline per tuple (locations are unique,
  so factoring them out saves nothing).
* Each non-spatial attribute's distinct values live in a per-attribute
  **sorted domain array**; tuples store small integer **IDs** (indices
  into the domain array). With ascending domains, comparing two IDs is
  equivalent to comparing the underlying values — dominance checks never
  touch raw values.
* The relation is kept **sorted on the attribute with the most distinct
  values** (ties broken lexicographically on the remaining IDs, which is
  what makes the SFS scan invariant — "no later tuple dominates an
  earlier one" — hold even with duplicate attribute values; the paper's
  pseudocode implicitly assumes distinct values).
* The MBR corners are kept as four constants for O(1) spatial pruning,
  and the sorted domains give the local attribute bounds ``l_j`` / ``h_j``
  in O(1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .base import SPATIAL_VALUE_BYTES, FLOAT_VALUE_BYTES, StorageModel
from .relation import Relation

__all__ = ["HybridStorage", "id_bytes_for"]


def id_bytes_for(distinct_values: int) -> int:
    """Bytes needed for an ID over a domain of ``distinct_values``.

    The device experiments use byte IDs because each attribute domain
    has 100 distinct values (Section 5.1).
    """
    if distinct_values <= 0:
        raise ValueError("distinct_values must be >= 1")
    if distinct_values <= 2**8:
        return 1
    if distinct_values <= 2**16:
        return 2
    return 4


class HybridStorage(StorageModel):
    """The paper's hybrid storage model.

    Args:
        relation: Source relation; the constructor builds domains, encodes
            IDs, and sorts the stored order.
        sort_attribute: Attribute index to sort the relation on. Defaults
            to the attribute with the largest number of distinct values
            (Section 4.2).
    """

    def __init__(self, relation: Relation, sort_attribute: Optional[int] = None) -> None:
        super().__init__(relation.schema)
        n = relation.cardinality
        dims = relation.dimensions
        domains: List[np.ndarray] = []
        ids = np.empty((n, dims), dtype=np.int32)
        for j in range(dims):
            column = relation.values[:, j]
            domain, codes = np.unique(column, return_inverse=True)
            domains.append(domain)
            ids[:, j] = codes.astype(np.int32)
        if sort_attribute is None:
            if dims:
                sizes = [d.shape[0] for d in domains]
                sort_attribute = int(np.argmax(sizes))
            else:
                sort_attribute = 0
        elif not 0 <= sort_attribute < dims:
            raise ValueError(
                f"sort_attribute {sort_attribute} outside 0..{dims - 1}"
            )
        self._sort_attribute = sort_attribute
        if n:
            # Lexicographic: sort attribute primary, remaining IDs as
            # tie-breaks so the SFS scan invariant holds under duplicates.
            keys = [ids[:, j] for j in range(dims - 1, -1, -1) if j != sort_attribute]
            keys.append(ids[:, sort_attribute])
            order = np.lexsort(tuple(keys))
        else:
            order = np.empty(0, dtype=np.int64)
        self._ids = ids[order]
        self._xy = relation.xy[order]
        self._site_ids = relation.site_ids[order]
        self._domains = domains
        self._ids.setflags(write=False)
        self._mbr = relation.mbr() if n else (0.0, 0.0, 0.0, 0.0)

    # -- layout accessors ------------------------------------------------

    @property
    def cardinality(self) -> int:
        return int(self._ids.shape[0])

    @property
    def xy(self) -> np.ndarray:
        return self._xy

    @property
    def site_ids(self) -> np.ndarray:
        return self._site_ids

    @property
    def sort_attribute(self) -> int:
        """Index of the attribute the stored order is sorted on."""
        return self._sort_attribute

    @property
    def ids(self) -> np.ndarray:
        """``(N, n)`` ID matrix in stored (sorted) order."""
        return self._ids

    def domain(self, attr: int) -> np.ndarray:
        """Sorted distinct values of attribute ``attr``."""
        return self._domains[attr]

    def domain_size(self, attr: int) -> int:
        """Number of distinct values of attribute ``attr``."""
        return int(self._domains[attr].shape[0])

    # -- logical access ----------------------------------------------------

    def get_id(self, row: int, attr: int) -> int:
        """ID of attribute ``attr`` of stored row ``row`` (one ID read)."""
        self.stats.id_reads += 1
        return int(self._ids[row, attr])

    def get_value(self, row: int, attr: int) -> float:
        """Decode the raw value (ID read + one domain dereference)."""
        self.stats.id_reads += 1
        self.stats.indirections += 1
        return float(self._domains[attr][self._ids[row, attr]])

    def values_matrix(self) -> np.ndarray:
        """Decode all IDs back to raw values (stored order)."""
        if self.cardinality == 0:
            return np.empty((0, self.dimensions), dtype=np.float64)
        cols = [
            self._domains[j][self._ids[:, j]] for j in range(self.dimensions)
        ]
        return np.column_stack(cols).astype(np.float64)

    def read_all_values(self) -> np.ndarray:
        """Bulk decode; charges one ID read + dereference per cell."""
        reads = self.cardinality * self.dimensions
        self.stats.id_reads += reads
        self.stats.indirections += reads
        return self.values_matrix()

    # -- O(1) metadata (Section 4.2) ----------------------------------------

    @property
    def mbr(self) -> Tuple[float, float, float, float]:
        if self.cardinality == 0:
            raise ValueError("MBR of an empty relation is undefined")
        return self._mbr

    def local_bounds(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """O(1): first/last entries of each sorted domain array."""
        if self.cardinality == 0:
            raise ValueError("bounds of an empty relation are undefined")
        lows = tuple(float(d[0]) for d in self._domains)
        highs = tuple(float(d[-1]) for d in self._domains)
        return lows, highs

    # -- footprint --------------------------------------------------------

    def id_bytes(self, attr: int) -> int:
        """Bytes per ID for attribute ``attr``."""
        return id_bytes_for(max(1, self.domain_size(attr)))

    def size_bytes(self) -> int:
        """Tuples store coordinates + per-attribute IDs; domains stored once."""
        per_tuple = 2 * SPATIAL_VALUE_BYTES + sum(
            self.id_bytes(j) for j in range(self.dimensions)
        )
        domain_bytes = sum(
            self.domain_size(j) * FLOAT_VALUE_BYTES for j in range(self.dimensions)
        )
        return self.cardinality * per_tuple + domain_bytes

    # -- ID-level encode/decode helpers -------------------------------------

    def encode_values(self, values: Sequence[float]) -> Tuple[int, ...]:
        """Map raw attribute values onto ID space.

        Values absent from a domain map to the insertion point minus 0.5
        semantics are not needed here — the caller (filter translation)
        uses :func:`encode_threshold` instead; this strict version raises
        on unknown values.
        """
        self.schema.validate_values(values)
        out = []
        for j, v in enumerate(values):
            pos = int(np.searchsorted(self._domains[j], v))
            if pos >= self.domain_size(j) or self._domains[j][pos] != v:
                raise KeyError(
                    f"value {v} not in domain of attribute {j} "
                    f"({self.schema.names[j]})"
                )
            out.append(pos)
        return tuple(out)

    def encode_threshold(
        self, values: Sequence[float], side: str = "left"
    ) -> Tuple[int, ...]:
        """Conservative ID-space image of an external value vector.

        For a filtering tuple that may not exist locally, attribute value
        ``v`` maps to the index of the first domain entry ``>= v``
        (``side="left"``). A local tuple with ``id >= encode_threshold(v)``
        has value ``>= v`` — exactly the relation the pruning comparisons
        need. ``side="right"`` maps ``v`` to the first entry ``> v``, so
        ``id >= threshold`` means the value is *strictly* greater — the
        strict half of the dominance test.
        """
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        self.schema.validate_values(values)
        return tuple(
            int(np.searchsorted(self._domains[j], v, side=side))
            for j, v in enumerate(values)
        )

    def decode_ids(self, ids: Sequence[int]) -> Tuple[float, ...]:
        """Inverse of :meth:`encode_values`."""
        if len(ids) != self.dimensions:
            raise ValueError(f"expected {self.dimensions} ids, got {len(ids)}")
        out = []
        for j, code in enumerate(ids):
            if not 0 <= code < self.domain_size(j):
                raise IndexError(f"id {code} outside domain of attribute {j}")
            out.append(float(self._domains[j][code]))
        return tuple(out)
