"""Result assembly, merge kernels, and the device result cache.

Companion to ``test_fast_path_parity.py``: that suite pins the fast
paths through full simulations; this one pins the pieces at unit
level —

* the incremental :class:`~repro.core.assembly.SkylineAssembler`
  against the legacy fold of :mod:`tests.oracles.assembly`, across
  dimensionalities and mixed MIN/MAX schemas;
* :func:`~repro.core.assembly.merge_tree` against the sequential fold;
* the ``dominated_mask`` / ``_duplicate_mask`` kernel edge cases: d=1,
  single-row inputs, all-duplicate batches, block sizes of 1 and
  larger than the input, and ``block=None`` vs tiled invariance;
* ``ProtocolConfig`` validation;
* :class:`~repro.core.local.LocalResultCache` bookkeeping (LRU
  eviction, counters, invalidation).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.assembly import (
    SkylineAssembler,
    _duplicate_mask,
    merge_skylines,
    merge_tree,
)
from repro.core.dominance import dominated_mask
from repro.core.local import LocalResultCache
from repro.core.query import SkylineQuery
from repro.core.skyline import skyline_of_relation
from repro.protocol.device import ProtocolConfig
from repro.storage import Relation
from repro.storage.schema import AttributeSpec, Preference, RelationSchema

from .oracles.assembly import LegacyAssembler

#: The assembler and its oracle, which must agree on every call.
ASSEMBLERS = (SkylineAssembler, LegacyAssembler)


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


def _mixed_schema(d):
    """Alternating MIN/MAX attributes (exercises normalization signs)."""
    return RelationSchema(
        attributes=tuple(
            AttributeSpec(
                f"a{i}", 0.0, 64.0,
                Preference.MIN if i % 2 == 0 else Preference.MAX,
            )
            for i in range(d)
        ),
        spatial_extent=(0.0, 0.0, 1000.0, 1000.0),
    )


def _partials(seed, d=2, parts=6, pool_n=48, schema=None):
    """Overlapping partial skylines from one shared site pool."""
    rng = np.random.default_rng(seed)
    schema = schema or _mixed_schema(d)
    pool_xy = rng.uniform(0.0, 1000.0, size=(pool_n, 2))
    pool_values = rng.integers(0, 64, size=(pool_n, d)).astype(float)
    out = []
    for _ in range(parts):
        n = int(rng.integers(1, pool_n // 2 + 1))
        pick = rng.choice(pool_n, size=n, replace=False)
        rel = Relation(schema, pool_xy[pick], pool_values[pick], pick)
        out.append(skyline_of_relation(rel))
    return schema, out


def _assert_bit_identical(a, b):
    assert np.array_equal(a.xy, b.xy)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.site_ids, b.site_ids)


# ---------------------------------------------------------------------------
# Assembler differential
# ---------------------------------------------------------------------------


class TestAssemblerAgainstLegacy:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_stream_matches_references_across_dims(self, d):
        for seed in range(8):
            schema, parts = _partials(seed, d=d)
            fast = SkylineAssembler(schema)
            slow = LegacyAssembler(schema)
            for part in parts:
                fast.add(part)
                slow.add(part)
                _assert_bit_identical(fast.result(), slow.result())
            assert fast.merges == slow.merges == len(parts)

    def test_seeded_initial_matches_add(self):
        schema, parts = _partials(13, d=2)
        seeded = SkylineAssembler(schema, parts[0])
        grown = SkylineAssembler(schema)
        grown.add(parts[0])
        _assert_bit_identical(seeded.result(), grown.result())
        _assert_bit_identical(
            seeded.result(), LegacyAssembler(schema, parts[0]).result()
        )

    def test_block_must_be_positive(self):
        with pytest.raises(ValueError):
            SkylineAssembler(_mixed_schema(2), block=0)


class TestMergeTree:
    def test_matches_sequential_fold(self):
        for seed in range(8):
            schema, parts = _partials(seed, d=2, parts=7)
            folded = parts[0]
            for part in parts[1:]:
                folded = merge_skylines(folded, part)
            _assert_bit_identical(merge_tree(parts), folded)

    def test_empty_and_single_inputs(self):
        schema, parts = _partials(5, d=2, parts=1)
        with pytest.raises(ValueError):
            merge_tree([])
        _assert_bit_identical(
            merge_tree([], schema=schema), Relation.empty(schema)
        )
        # A lone partial still gets within-partial duplicate elimination.
        doubled = Relation(
            schema,
            np.vstack([parts[0].xy, parts[0].xy]),
            np.vstack([parts[0].values, parts[0].values]),
            np.concatenate([parts[0].site_ids, parts[0].site_ids]),
        )
        _assert_bit_identical(merge_tree([doubled]), parts[0])


# ---------------------------------------------------------------------------
# Kernel edge cases
# ---------------------------------------------------------------------------


class TestDominatedByEdges:
    def test_d1_strict_dominance(self):
        by = np.array([[2.0]])
        targets = np.array([[1.0], [2.0], [3.0]])
        for block in (None, 1, 2, 512):
            assert dominated_mask(by, targets, block).tolist() == [
                False, False, True,
            ]

    def test_single_row_both_sides(self):
        a = np.array([[1.0, 2.0]])
        b = np.array([[2.0, 3.0]])
        for block in (None, 1, 512):
            assert dominated_mask(a, b, block).tolist() == [True]
            assert dominated_mask(b, a, block).tolist() == [False]
            # Equal rows never dominate themselves (strict somewhere).
            assert dominated_mask(a, a, block).tolist() == [False]

    def test_empty_inputs(self):
        empty = np.empty((0, 2))
        rows = np.array([[1.0, 1.0]])
        for block in (None, 1):
            assert dominated_mask(empty, rows, block).tolist() == [False]
            assert dominated_mask(rows, empty, block).shape == (0,)

    @pytest.mark.parametrize("block", [1, 3, 7, 512])
    def test_tiled_matches_unbounded(self, block):
        """Any tile size — including 1 and larger than either input —
        reproduces the unbounded broadcast bit for bit."""
        rng = np.random.default_rng(17)
        for _ in range(10):
            by = rng.integers(0, 6, size=(rng.integers(1, 40), 3)).astype(float)
            targets = rng.integers(0, 6, size=(rng.integers(1, 40), 3)).astype(
                float
            )
            reference = dominated_mask(by, targets, None)
            assert np.array_equal(dominated_mask(by, targets, block), reference)


class TestDuplicateMaskEdges:
    def test_all_duplicates(self):
        xy = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        assert _duplicate_mask(xy, xy).all()

    def test_no_duplicates_and_empty(self):
        xy = np.array([[1.0, 2.0]])
        other = np.array([[9.0, 9.0]])
        assert not _duplicate_mask(xy, other).any()
        assert _duplicate_mask(np.empty((0, 2)), xy).shape == (0,)
        assert not _duplicate_mask(xy, np.empty((0, 2))).any()

    def test_all_duplicate_batch_merges_to_first_copy(self):
        """An incoming partial that duplicates every location leaves the
        running result untouched (first copy wins), in both assemblers."""
        schema, parts = _partials(7, d=2, parts=1)
        for assembler in ASSEMBLERS:
            asm = assembler(schema, parts[0])
            before = asm.result()
            asm.add(parts[0])
            _assert_bit_identical(asm.result(), before)


# ---------------------------------------------------------------------------
# Protocol configuration
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_protocol_config_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ProtocolConfig(query_timeout=0.0)


# ---------------------------------------------------------------------------
# LocalResultCache bookkeeping
# ---------------------------------------------------------------------------


class TestLocalResultCache:
    def _key(self, epoch=0, cnt=0, d=250.0):
        query = SkylineQuery(origin=1, cnt=cnt, pos=(10.0, 20.0), d=d)
        return LocalResultCache.signature(epoch, query, None)

    def test_hit_returns_same_objects(self):
        cache = LocalResultCache(4)
        key = self._key()
        assert cache.get(key) is None
        result = object()
        cache.put(key, result)
        assert cache.get(key) is result
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_signature_distinguishes_epoch_and_scope(self):
        cache = LocalResultCache(4)
        cache.put(self._key(epoch=0), "r")
        assert cache.get(self._key(epoch=1)) is None
        assert cache.get(self._key(d=300.0)) is None
        # The key deliberately ignores the query identity: a different
        # query with the same (pos, d) scope shares the cached slice.
        assert cache.get(self._key(cnt=1)) is not None

    def test_lru_eviction_order(self):
        cache = LocalResultCache(2)
        a, b, c = self._key(d=100.0), self._key(d=200.0), self._key(d=300.0)
        cache.put(a, "a")
        cache.put(b, "b")
        cache.get(a)  # refresh a: b becomes least recent
        cache.put(c, "c")
        assert len(cache) == 2
        assert cache.get(b) is None
        assert cache.get(a) is not None
        assert cache.get(c) is not None

    def test_invalidate_clears_and_counts(self):
        cache = LocalResultCache(4)
        cache.put(self._key(), "r")
        cache.invalidate()
        assert len(cache) == 0
        assert cache.invalidations == 1
        assert cache.get(self._key()) is None

    def test_empty_hit_rate(self):
        assert LocalResultCache(4).hit_rate == 0.0
