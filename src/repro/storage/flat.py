"""Flat storage: every tuple stored sequentially with raw values inline.

This is the paper's baseline layout (FS in Section 5.1). It needs no
domain tables, imposes no sort order, and pays full-width raw-value
comparisons during skyline processing — which is what the hybrid scheme
beats.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .base import (
    FLOAT_VALUE_BYTES,
    SPATIAL_VALUE_BYTES,
    StorageModel,
)
from .relation import Relation

__all__ = ["FlatStorage"]


class FlatStorage(StorageModel):
    """Raw-value row storage in insertion order."""

    def __init__(self, relation: Relation) -> None:
        super().__init__(relation.schema)
        self._xy = relation.xy
        self._values = relation.values
        self._site_ids = relation.site_ids
        self._mbr = relation.mbr() if relation.cardinality else (0.0, 0.0, 0.0, 0.0)

    @property
    def cardinality(self) -> int:
        return int(self._values.shape[0])

    @property
    def xy(self) -> np.ndarray:
        return self._xy

    @property
    def site_ids(self) -> np.ndarray:
        return self._site_ids

    def get_value(self, row: int, attr: int) -> float:
        """Direct raw-value fetch (one value read)."""
        self.stats.value_reads += 1
        return float(self._values[row, attr])

    def values_matrix(self) -> np.ndarray:
        return self._values

    def read_all_values(self) -> np.ndarray:
        """Bulk fetch; charges one value read per cell."""
        self.stats.value_reads += self.cardinality * self.dimensions
        return self._values

    def size_bytes(self) -> int:
        """N tuples, each ``2 * 4`` spatial bytes + ``n * 4`` value bytes."""
        per_tuple = 2 * SPATIAL_VALUE_BYTES + self.dimensions * FLOAT_VALUE_BYTES
        return self.cardinality * per_tuple

    @property
    def mbr(self) -> Tuple[float, float, float, float]:
        if self.cardinality == 0:
            raise ValueError("MBR of an empty relation is undefined")
        return self._mbr
