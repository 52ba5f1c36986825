"""Grid partitioning of the global relation across mobile devices.

"Based on a uniform grid on the spatial domain, a global relation R is
divided into local relations (the R_i s), each containing all the tuples
within its corresponding grid cell" (Section 5.2.1). Each of the ``m``
devices holds one cell; ``m`` is a perfect square (9, 16, ..., 100).

Local relations *may* overlap in general (Section 2); the optional
``replication`` knob copies a fraction of tuples into a neighbouring
cell's relation to exercise duplicate elimination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..storage.relation import Relation
from ..storage.schema import RelationSchema
from . import generators
from .spatial import uniform_positions

__all__ = ["GridPartition", "GlobalDataset", "make_global_dataset"]


@dataclass(frozen=True)
class GridPartition:
    """A uniform ``k x k`` grid over a spatial extent.

    Cells are numbered row-major: cell ``(row, col)`` has index
    ``row * k + col``.
    """

    k: int
    extent: Tuple[float, float, float, float]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("grid side k must be >= 1")
        x_min, y_min, x_max, y_max = self.extent
        if not (x_min < x_max and y_min < y_max):
            raise ValueError(f"degenerate extent {self.extent}")

    @property
    def cells(self) -> int:
        """Total number of cells ``m = k * k``."""
        return self.k * self.k

    @property
    def cell_width(self) -> float:
        """Width of one cell."""
        return (self.extent[2] - self.extent[0]) / self.k

    @property
    def cell_height(self) -> float:
        """Height of one cell."""
        return (self.extent[3] - self.extent[1]) / self.k

    def cell_of(self, x: float, y: float) -> int:
        """Index of the cell containing ``(x, y)`` (borders go low)."""
        x_min, y_min, x_max, y_max = self.extent
        if not (x_min <= x <= x_max and y_min <= y <= y_max):
            raise ValueError(f"position ({x}, {y}) outside extent {self.extent}")
        col = min(int((x - x_min) / self.cell_width), self.k - 1)
        row = min(int((y - y_min) / self.cell_height), self.k - 1)
        return row * self.k + col

    def cell_rect(self, index: int) -> Tuple[float, float, float, float]:
        """``(x_min, y_min, x_max, y_max)`` of cell ``index``."""
        row, col = divmod(self._check_index(index), self.k)
        x_min = self.extent[0] + col * self.cell_width
        y_min = self.extent[1] + row * self.cell_height
        return (x_min, y_min, x_min + self.cell_width, y_min + self.cell_height)

    def cell_center(self, index: int) -> Tuple[float, float]:
        """Center point of cell ``index``."""
        x_min, y_min, x_max, y_max = self.cell_rect(index)
        return ((x_min + x_max) / 2.0, (y_min + y_max) / 2.0)

    def neighbors(self, index: int) -> List[int]:
        """4-neighbourhood (N/S/E/W) cell indices of cell ``index``.

        This adjacency is what the static pre-tests forward queries
        along ("queries are forwarded recursively from the originator to
        the outer neighbors in the grid", Section 5.2.2-I).
        """
        row, col = divmod(self._check_index(index), self.k)
        out = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            r, c = row + dr, col + dc
            if 0 <= r < self.k and 0 <= c < self.k:
                out.append(r * self.k + c)
        return out

    def assign(self, xy: np.ndarray) -> np.ndarray:
        """Vectorised cell assignment for an ``(N, 2)`` position array."""
        xy = np.asarray(xy, dtype=np.float64)
        col = np.minimum(
            ((xy[:, 0] - self.extent[0]) / self.cell_width).astype(np.int64),
            self.k - 1,
        )
        row = np.minimum(
            ((xy[:, 1] - self.extent[1]) / self.cell_height).astype(np.int64),
            self.k - 1,
        )
        return row * self.k + col

    def _check_index(self, index: int) -> int:
        if not 0 <= index < self.cells:
            raise IndexError(f"cell index {index} outside 0..{self.cells - 1}")
        return index


@dataclass(frozen=True)
class GlobalDataset:
    """A partitioned global relation.

    Attributes:
        schema: Shared relation schema.
        global_relation: The virtual global relation ``R`` (union of all
            locals, before replication).
        locals: One local relation ``R_i`` per device/grid cell.
        grid: The partitioning grid.
    """

    schema: RelationSchema
    global_relation: Relation
    locals: Tuple[Relation, ...]
    grid: GridPartition

    @property
    def devices(self) -> int:
        """Number of devices ``m``."""
        return len(self.locals)

    def local(self, index: int) -> Relation:
        """Local relation of device ``index``."""
        return self.locals[index]


def make_global_dataset(
    cardinality: int,
    dimensions: int,
    devices: int,
    distribution: str = "independent",
    schema: Optional[RelationSchema] = None,
    seed: Optional[int] = None,
    value_step: Optional[float] = None,
    replication: float = 0.0,
) -> GlobalDataset:
    """Generate and grid-partition a global relation, paper style.

    Args:
        cardinality: Global relation size ``|R|``.
        dimensions: Number of non-spatial attributes ``n``.
        devices: Number of devices ``m``; must be a perfect square.
        distribution: ``independent`` / ``correlated`` / ``anticorrelated``.
        schema: Relation schema; defaults to ``n`` MIN attributes over
            ``[0, 1000]`` and a ``1000 x 1000`` spatial extent (Table 6).
        seed: RNG seed for reproducibility.
        value_step: If given, quantize attribute values to this grid
            spacing (1.0 reproduces the simulation's integer attributes,
            0.1 the device experiments' ``{0.0..9.9}`` domain).
        replication: Fraction of tuples copied to a random neighbouring
            cell (creates overlapping ``R_i`` s; 0 = disjoint, the
            experimental default).

    Returns:
        A :class:`GlobalDataset` with consistent global site ids across
        local relations (replicated tuples share the original's id).
    """
    if cardinality < 0:
        raise ValueError("cardinality must be >= 0")
    k = math.isqrt(devices)
    if k * k != devices or devices < 1:
        raise ValueError(f"devices must be a positive perfect square, got {devices}")
    if not 0.0 <= replication <= 1.0:
        raise ValueError("replication must be in [0, 1]")
    if schema is None:
        from ..storage.schema import uniform_schema

        schema = uniform_schema(dimensions, low=0.0, high=1000.0)
    elif schema.dimensions != dimensions:
        raise ValueError(
            f"schema has {schema.dimensions} attributes, expected {dimensions}"
        )
    rng = np.random.default_rng(seed)
    unit = generators.generate(distribution, cardinality, dimensions, rng)
    values = generators.scale_to_domain(unit, schema)
    if value_step is not None:
        values = generators.clip_to_domain(
            generators.quantize(values, value_step), schema
        )
    xy = uniform_positions(cardinality, schema.spatial_extent, rng)
    global_relation = Relation(schema, xy, values)

    grid = GridPartition(k=k, extent=schema.spatial_extent)
    cell_of = grid.assign(xy)
    # A stable sort by cell keeps each cell's row indices ascending;
    # numpy sorts a 16-bit key by radix.
    key = cell_of.astype(np.int16) if grid.cells < 2**15 else cell_of
    order = np.argsort(key, kind="stable")
    bounds = np.cumsum(np.bincount(cell_of, minlength=grid.cells))[:-1]
    per_cell = np.split(order, bounds)

    if replication > 0.0 and cardinality > 0:
        n_rep = int(round(replication * cardinality))
        chosen = rng.choice(cardinality, size=min(n_rep, cardinality), replace=False)
        extra: Dict[int, List[int]] = {}
        for row_idx in chosen:
            options = grid.neighbors(int(cell_of[row_idx]))
            if options:
                target = int(options[rng.integers(0, len(options))])
                extra.setdefault(target, []).append(int(row_idx))
        for cell, rows in extra.items():
            per_cell[cell] = np.sort(np.concatenate((per_cell[cell], rows)))

    g = global_relation
    locals_ = [
        Relation._wrap(schema, g.xy.take(idx, axis=0),
                       g.values.take(idx, axis=0), g.site_ids.take(idx))
        for idx in per_cell
    ]
    return GlobalDataset(
        schema=schema,
        global_relation=global_relation,
        locals=tuple(locals_),
        grid=grid,
    )
