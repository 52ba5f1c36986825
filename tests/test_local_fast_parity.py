"""Differential suite pinning the local-processing kernels.

The tiled numpy kernels of :mod:`repro.core.local` shadow the
row-at-a-time Figure 4 loops kept in :mod:`tests.oracles.local`.
The contract is *bit-identical everything*: skyline rows in order,
skip decisions, every :class:`ComparisonCounter` field, every
:class:`AccessStats` field, and the promoted filtering tuple — for all
four storage models, any tile size, any estimation mode. The reference
loops define correctness; these tests make the kernels earn their keep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.filtering import Estimation, FilteringTuple
from repro.core.local import local_skyline
from repro.core.query import SkylineQuery
from repro.experiments.local_processing import device_dataset
from repro.storage import (
    DomainStorage,
    FlatStorage,
    HybridStorage,
    RingStorage,
)

from .oracles.local import local_skyline_reference

ALL_STORAGES = [FlatStorage, HybridStorage, DomainStorage, RingStorage]

QUERY = SkylineQuery(origin=0, cnt=0, pos=(500.0, 500.0), d=700.0)
WIDE = SkylineQuery(origin=0, cnt=0, pos=(500.0, 500.0), d=1.0e12)


def _observe(evaluate, storage_cls, rel, query, **kwargs):
    """Everything the contract pins, as one comparable tuple."""
    storage = storage_cls(rel)
    res = evaluate(storage, query, **kwargs)
    flt = res.updated_filter
    return (
        res.skyline.xy.tobytes(),
        res.skyline.values.tobytes(),
        res.unreduced_size,
        res.skipped,
        res.scanned,
        res.in_range,
        (
            res.comparisons.id_comparisons,
            res.comparisons.value_comparisons,
            res.comparisons.distance_checks,
        ),
        (
            storage.stats.value_reads,
            storage.stats.id_reads,
            storage.stats.indirections,
        ),
        None if flt is None else (tuple(flt.values), flt.vdr),
    )


def _assert_paths_agree(rel, query, block=None, **kwargs):
    tiles = {} if block is None else {"block": block}
    for storage_cls in ALL_STORAGES:
        fast = _observe(local_skyline, storage_cls, rel, query, **tiles, **kwargs)
        ref = _observe(local_skyline_reference, storage_cls, rel, query, **kwargs)
        assert fast == ref, storage_cls.__name__


class TestKernelParity:
    @pytest.mark.parametrize("distribution", ["independent", "anticorrelated"])
    @pytest.mark.parametrize("dims", [2, 4])
    def test_plain_query(self, distribution, dims):
        for seed in range(6):
            rel = device_dataset(130, dims, distribution, seed=seed)
            _assert_paths_agree(rel, QUERY)

    @pytest.mark.parametrize("estimation", list(Estimation))
    def test_with_filter(self, estimation):
        """Filter pruning: MBR skip, range reduction, and the window
        filter pass must make identical decisions and charges."""
        for seed in range(6):
            rel = device_dataset(130, 3, "independent", seed=seed)
            flt = FilteringTuple(site=rel.row(seed % rel.cardinality), vdr=1.0)
            _assert_paths_agree(rel, WIDE, flt=flt, estimation=estimation)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_tiny_tiles(self, block):
        """Tile boundaries are internal: any block size replays the
        reference counters exactly (block=1 degenerates to row-at-a-time)."""
        rel = device_dataset(90, 3, "anticorrelated", seed=11)
        flt = FilteringTuple(site=rel.row(5), vdr=1.0)
        _assert_paths_agree(rel, QUERY, block=block)
        _assert_paths_agree(rel, WIDE, flt=flt, block=block)

    def test_duplicate_heavy_relation(self):
        """Equal ID tuples never dominate each other — the duplicated
        regime where the strictness of dominance matters most."""
        for seed in range(4):
            rng = np.random.default_rng(seed)
            rel = device_dataset(150, 3, "independent", seed=seed)
            values = np.floor(rel.values / 300.0) * 300.0  # ~4 distinct
            rel = type(rel)(rel.schema, rel.xy, values)
            del rng
            _assert_paths_agree(rel, QUERY)

    def test_degenerate_sizes(self):
        for n in (1, 2, 3):
            rel = device_dataset(n, 2, "independent", seed=1)
            _assert_paths_agree(rel, WIDE)

    def test_out_of_range_skip(self):
        rel = device_dataset(40, 2, "independent", seed=2)
        far = SkylineQuery(origin=0, cnt=0, pos=(-9e6, -9e6), d=1.0)
        _assert_paths_agree(rel, far)
