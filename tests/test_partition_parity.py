"""Parity of the array-based dataset partitioning with the per-row loop
it replaced.

``make_global_dataset`` sorts rows into grid cells with a stable sort
on a narrow integer key and a split. ``uniform_positions`` sorts the x
column each redraw round, and only when two x values tie does it find
the colliding positions with a stable ``lexsort``. Both must give
exactly what the per-row loop and the ``np.unique``-based collision
test gave: same random draws, same rows, same order, in every field.

The values are scaled, quantized and clipped one attribute column at a
time, and each local relation is a ``take`` of its cell's rows. The
reference spells out the pipeline those replaced: a broadcast bounds
row, ``np.round(v / step) * step``, ``np.clip`` with tuple bounds and
fancy-indexed locals, so it shares no value code with what it checks.
"""

import math

import numpy as np
import pytest

from repro.data import GridPartition, make_global_dataset, uniform_positions
from repro.data import generators
from repro.storage.relation import Relation
from repro.storage.schema import (
    AttributeSpec,
    Preference,
    RelationSchema,
    uniform_schema,
)


def reference_positions(n, extent, rng):
    """``uniform_positions`` as it was: collisions found by ``np.unique``."""
    x_min, y_min, x_max, y_max = extent
    pts = np.column_stack([rng.uniform(x_min, x_max, size=n),
                           rng.uniform(y_min, y_max, size=n)])
    if n > 1:
        for _ in range(32):
            _, first = np.unique(pts, axis=0, return_index=True)
            dup_mask = np.ones(n, dtype=bool)
            dup_mask[first] = False
            count = int(dup_mask.sum())
            if count == 0:
                break
            pts[dup_mask] = np.column_stack([
                rng.uniform(x_min, x_max, size=count),
                rng.uniform(y_min, y_max, size=count),
            ])
    return pts


def reference_unit(distribution, n, dimensions, rng):
    """Unit values; ``correlated`` as it was, with a broadcast level."""
    if distribution != "correlated":
        return generators.generate(distribution, n, dimensions, rng)
    level = generators._truncated_normal(rng, n, loc=0.5, scale=0.25)
    points = np.abs(level[:, None] + rng.normal(0.0, 0.05, size=(n, dimensions)))
    points = np.where(points > 1.0, 2.0 - points, points)
    return np.clip(points, 0.0, 1.0)


def reference_dataset(cardinality, dimensions, devices, distribution,
                      seed, value_step=None, replication=0.0, schema=None):
    """``make_global_dataset`` as it was: one loop iteration per row."""
    k = math.isqrt(devices)
    if schema is None:
        schema = uniform_schema(dimensions, low=0.0, high=1000.0)
    rng = np.random.default_rng(seed)
    unit = reference_unit(distribution, cardinality, dimensions, rng)
    lows = np.asarray(schema.lows)
    highs = np.asarray(schema.highs)
    values = lows[None, :] + unit * (highs - lows)[None, :]
    if value_step is not None:
        values = np.round(values / value_step) * value_step
        values = np.clip(values, schema.lows, schema.highs)
    xy = reference_positions(cardinality, schema.spatial_extent, rng)
    global_relation = Relation(schema, xy, values)
    grid = GridPartition(k=k, extent=schema.spatial_extent)
    cell_of = grid.assign(xy)
    per_cell = {c: [] for c in range(grid.cells)}
    for row_idx, cell in enumerate(cell_of):
        per_cell[int(cell)].append(row_idx)
    if replication > 0.0 and cardinality > 0:
        n_rep = int(round(replication * cardinality))
        chosen = rng.choice(cardinality, size=min(n_rep, cardinality),
                            replace=False)
        for row_idx in chosen:
            options = grid.neighbors(int(cell_of[row_idx]))
            if options:
                target = int(options[rng.integers(0, len(options))])
                per_cell[target].append(int(row_idx))
    locals_ = []
    for cell in range(grid.cells):
        idx = np.asarray(sorted(per_cell[cell]), dtype=np.int64)
        locals_.append((
            global_relation.xy[idx],
            global_relation.values[idx],
            global_relation.site_ids[idx],
        ))
    return global_relation, locals_


def assert_same_array(a, b):
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)


def assert_same_relation(rel, xy, values, site_ids):
    for got, expected in ((rel.xy, xy), (rel.values, values),
                          (rel.site_ids, site_ids)):
        assert_same_array(got, expected)
        assert got.flags.c_contiguous
        assert not got.flags.writeable


#: One MAX attribute and one attribute with a nonzero low bound.
MIXED_SCHEMA = RelationSchema(attributes=(
    AttributeSpec("p1"),
    AttributeSpec("p2", low=3.0, high=250.0),
    AttributeSpec("p3", low=0.0, high=9.9, preference=Preference.MAX),
))


@pytest.mark.parametrize("cardinality", [0, 1, 25_000])
@pytest.mark.parametrize("devices", [1, 4, 25])
@pytest.mark.parametrize("replication", [0.0, 0.3])
@pytest.mark.parametrize("value_step", [None, 1.0])
def test_make_global_dataset_matches_per_row_loop(
    cardinality, devices, replication, value_step
):
    seed = 1000 + cardinality + devices
    ds = make_global_dataset(cardinality, 2, devices, "independent",
                             seed=seed, value_step=value_step,
                             replication=replication)
    ref_global, ref_locals = reference_dataset(
        cardinality, 2, devices, "independent", seed, value_step, replication
    )
    assert_same_array(ds.global_relation.xy, ref_global.xy)
    assert_same_array(ds.global_relation.values, ref_global.values)
    assert_same_array(ds.global_relation.site_ids, ref_global.site_ids)
    assert len(ds.locals) == devices
    for local, (xy, values, site_ids) in zip(ds.locals, ref_locals):
        assert_same_array(local.xy, xy)
        assert_same_array(local.values, values)
        assert_same_array(local.site_ids, site_ids)
    if replication and cardinality > 1 and devices > 1:
        assert sum(r.cardinality for r in ds.locals) > cardinality


@pytest.mark.parametrize("cardinality", [0, 7, 4000])
@pytest.mark.parametrize("schema", [None, MIXED_SCHEMA], ids=["uniform", "mixed"])
@pytest.mark.parametrize("replication", [0.0, 0.2])
@pytest.mark.parametrize("value_step", [None, 0.1, 1.0])
@pytest.mark.parametrize("distribution", generators.DISTRIBUTIONS)
def test_make_global_dataset_matches_old_value_pipeline(
    distribution, value_step, replication, schema, cardinality
):
    """Every distribution, quantization step and schema shape, with
    empty cells (7 rows over 16 cells), checked field by field."""
    dimensions = 2 if schema is None else schema.dimensions
    seed = 77 + cardinality
    ds = make_global_dataset(cardinality, dimensions, 16, distribution,
                             schema=schema, seed=seed, value_step=value_step,
                             replication=replication)
    ref_global, ref_locals = reference_dataset(
        cardinality, dimensions, 16, distribution, seed, value_step,
        replication, schema,
    )
    assert_same_relation(ds.global_relation, ref_global.xy,
                         ref_global.values, ref_global.site_ids)
    assert len(ds.locals) == 16
    for local, (xy, values, site_ids) in zip(ds.locals, ref_locals):
        assert_same_relation(local, xy, values, site_ids)
    if cardinality == 7:
        assert any(local.cardinality == 0 for local in ds.locals)


class CollidingRng:
    """A generator whose first ``coarse`` ``uniform`` draws are rounded to
    three values, so early rounds collide and get redrawn. An odd count
    leaves one round with equal x but distinct y, which only the
    ``lexsort`` fallback can clear."""

    def __init__(self, seed, coarse):
        self._rng = np.random.default_rng(seed)
        self._coarse = coarse

    def uniform(self, low, high, size):
        out = self._rng.uniform(low, high, size=size)
        if self._coarse > 0:
            self._coarse -= 1
            out = np.floor(out / (high - low) * 3.0)
        return out


@pytest.mark.parametrize("n", [2, 9, 50, 400, 25_000])
@pytest.mark.parametrize("coarse", [1, 2, 3, 4, 8])
def test_uniform_positions_redraws_match_unique_reference(n, coarse):
    extent = (0.0, 0.0, 10.0, 10.0)
    got = uniform_positions(n, extent, CollidingRng(n, coarse))
    expected = reference_positions(n, extent, CollidingRng(n, coarse))
    assert_same_array(got, expected)
    assert len(np.unique(got, axis=0)) == n
