"""Tests for the four storage models (Section 4.1)."""

import numpy as np
import pytest

from repro.storage import (
    DomainStorage,
    FlatStorage,
    HybridStorage,
    Relation,
    RingStorage,
    id_bytes_for,
    uniform_schema,
)


ALL_STORAGES = [FlatStorage, HybridStorage, DomainStorage, RingStorage]


def quantized_relation(n=120, dims=3, seed=0, distinct=8):
    """A relation with few distinct values per attribute (shared values
    are what domain/ring storage exist for)."""
    rng = np.random.default_rng(seed)
    schema = uniform_schema(dims, low=0.0, high=float(distinct - 1))
    values = rng.integers(0, distinct, size=(n, dims)).astype(float)
    xy = np.column_stack([rng.uniform(0, 1000, n), rng.uniform(0, 1000, n)])
    return Relation(schema, xy, values)


@pytest.mark.parametrize("storage_cls", ALL_STORAGES)
class TestCommonContract:
    def test_cardinality_and_dims(self, storage_cls):
        rel = quantized_relation()
        s = storage_cls(rel)
        assert s.cardinality == 120
        assert s.dimensions == 3
        assert len(s) == 120

    def test_values_roundtrip_as_multiset(self, storage_cls):
        rel = quantized_relation()
        s = storage_cls(rel)
        got = sorted(map(tuple, s.values_matrix().tolist()))
        want = sorted(map(tuple, rel.values.tolist()))
        assert got == want

    def test_rows_keep_xy_value_pairing(self, storage_cls):
        rel = quantized_relation(n=40)
        s = storage_cls(rel)
        original = {
            (rel.xy[i, 0], rel.xy[i, 1]): tuple(rel.values[i])
            for i in range(40)
        }
        vm = s.values_matrix()
        for i in range(40):
            assert original[(s.xy[i, 0], s.xy[i, 1])] == tuple(vm[i])

    def test_get_value_matches_matrix(self, storage_cls):
        rel = quantized_relation(n=30)
        s = storage_cls(rel)
        vm = s.values_matrix()
        for row in (0, 7, 29):
            for attr in range(3):
                assert s.get_value(row, attr) == vm[row, attr]

    def test_mbr(self, storage_cls):
        rel = quantized_relation()
        s = storage_cls(rel)
        assert s.mbr == rel.mbr()

    def test_mbr_empty_raises(self, storage_cls, schema2):
        s = storage_cls(Relation.empty(schema2))
        with pytest.raises(ValueError):
            _ = s.mbr

    def test_local_bounds(self, storage_cls):
        rel = quantized_relation()
        s = storage_cls(rel)
        lows, highs = s.local_bounds()
        assert lows == tuple(rel.values.min(axis=0))
        assert highs == tuple(rel.values.max(axis=0))

    def test_to_relation_roundtrip(self, storage_cls):
        rel = quantized_relation(n=25)
        s = storage_cls(rel)
        back = s.to_relation()
        got = sorted(map(tuple, np.column_stack([back.xy, back.values]).tolist()))
        want = sorted(map(tuple, np.column_stack([rel.xy, rel.values]).tolist()))
        assert got == want

    def test_size_bytes_positive(self, storage_cls):
        s = storage_cls(quantized_relation())
        assert s.size_bytes() > 0


class TestHybridSpecifics:
    def test_domains_sorted_distinct(self):
        rel = quantized_relation()
        hs = HybridStorage(rel)
        for j in range(3):
            d = hs.domain(j)
            assert np.array_equal(d, np.unique(rel.values[:, j]))

    def test_ids_decode_to_values(self):
        rel = quantized_relation(n=50)
        hs = HybridStorage(rel)
        vm = hs.values_matrix()
        for row in range(50):
            decoded = hs.decode_ids(tuple(hs.ids[row]))
            assert decoded == tuple(vm[row])

    def test_id_order_reflects_value_order(self):
        """Section 4.2: comparing IDs is equivalent to comparing values."""
        rel = quantized_relation(n=200, seed=3)
        hs = HybridStorage(rel)
        vm = hs.values_matrix()
        rng = np.random.default_rng(0)
        for _ in range(100):
            a, b = rng.integers(0, 200, 2)
            for j in range(3):
                assert (hs.ids[a, j] < hs.ids[b, j]) == (vm[a, j] < vm[b, j])
                assert (hs.ids[a, j] == hs.ids[b, j]) == (vm[a, j] == vm[b, j])

    def test_sorted_on_widest_attribute(self):
        rng = np.random.default_rng(1)
        schema = uniform_schema(2, high=1000.0)
        values = np.column_stack(
            [
                rng.integers(0, 4, 100).astype(float),     # 4 distinct
                rng.integers(0, 500, 100).astype(float),   # ~500 distinct
            ]
        )
        xy = np.column_stack([rng.uniform(0, 10, 100), rng.uniform(0, 10, 100)])
        hs = HybridStorage(Relation(schema, xy, values))
        assert hs.sort_attribute == 1
        assert np.all(np.diff(hs.ids[:, 1]) >= 0)

    def test_stored_order_dominance_monotone(self):
        """No stored tuple may be dominated by a later one (SFS invariant),
        even with heavy duplication."""
        rel = quantized_relation(n=150, distinct=3, seed=5)
        hs = HybridStorage(rel)
        ids = hs.ids
        for i in range(0, 150, 11):
            later = ids[i + 1 :]
            no_worse = (later <= ids[i]).all(axis=1)
            better = (later < ids[i]).any(axis=1)
            assert not (no_worse & better).any()

    def test_explicit_sort_attribute(self):
        rel = quantized_relation()
        hs = HybridStorage(rel, sort_attribute=2)
        assert hs.sort_attribute == 2
        assert np.all(np.diff(hs.ids[:, 2]) >= 0)

    def test_invalid_sort_attribute(self):
        with pytest.raises(ValueError):
            HybridStorage(quantized_relation(), sort_attribute=9)

    def test_encode_values_exact(self):
        rel = quantized_relation(n=20)
        hs = HybridStorage(rel)
        vm = hs.values_matrix()
        assert hs.encode_values(tuple(vm[3])) == tuple(int(i) for i in hs.ids[3])

    def test_encode_values_unknown_raises(self):
        hs = HybridStorage(quantized_relation())
        with pytest.raises(KeyError):
            hs.encode_values((0.5, 0.5, 0.5))

    def test_encode_threshold_semantics(self):
        """id >= threshold  <=>  value >= probe."""
        rel = quantized_relation(n=60, seed=7)
        hs = HybridStorage(rel)
        vm = hs.values_matrix()
        for probe in [(-1.0, 2.5, 3.0), (0.0, 0.0, 0.0), (99.0, 1.0, 2.0)]:
            thr = hs.encode_threshold(probe)
            for row in range(0, 60, 7):
                for j in range(3):
                    assert (hs.ids[row, j] >= thr[j]) == (vm[row, j] >= probe[j])

    def test_encode_threshold_right_side(self):
        """side="right": id >= threshold  <=>  value > probe."""
        rel = quantized_relation(n=60, seed=7)
        hs = HybridStorage(rel)
        vm = hs.values_matrix()
        for probe in [(-1.0, 2.5, 3.0), (0.0, 0.0, 0.0), (99.0, 1.0, 2.0)]:
            thr = hs.encode_threshold(probe, side="right")
            for row in range(0, 60, 7):
                for j in range(3):
                    assert (hs.ids[row, j] >= thr[j]) == (vm[row, j] > probe[j])

    def test_encode_threshold_matches_searchsorted(self):
        rel = quantized_relation(n=80, seed=8)
        hs = HybridStorage(rel)
        probe = tuple(float(v) for v in rel.values[4])
        for side in ("left", "right"):
            thr = hs.encode_threshold(probe, side=side)
            want = tuple(
                int(np.searchsorted(hs.domain(j), probe[j], side=side))
                for j in range(3)
            )
            assert thr == want

    def test_encode_threshold_invalid_side(self):
        hs = HybridStorage(quantized_relation())
        with pytest.raises(ValueError):
            hs.encode_threshold((0.0, 0.0, 0.0), side="middle")

    def test_local_bounds_o1_from_domains(self):
        rel = quantized_relation()
        hs = HybridStorage(rel)
        lows, highs = hs.local_bounds()
        for j in range(3):
            assert lows[j] == hs.domain(j)[0]
            assert highs[j] == hs.domain(j)[-1]

    def test_id_bytes_for(self):
        assert id_bytes_for(100) == 1
        assert id_bytes_for(256) == 1
        assert id_bytes_for(257) == 2
        assert id_bytes_for(70000) == 4
        with pytest.raises(ValueError):
            id_bytes_for(0)

    def test_byte_ids_for_small_domains(self):
        """Section 5.1: 100 distinct values -> byte IDs."""
        rel = quantized_relation(distinct=100)
        hs = HybridStorage(rel)
        assert all(hs.id_bytes(j) == 1 for j in range(3))

    def test_hybrid_smaller_than_flat_when_values_shared(self):
        rel = quantized_relation(n=5000, distinct=16)
        assert HybridStorage(rel).size_bytes() < FlatStorage(rel).size_bytes()

    def test_stats_counting(self):
        hs = HybridStorage(quantized_relation())
        hs.get_id(0, 0)
        hs.get_value(0, 1)
        assert hs.stats.id_reads == 2
        assert hs.stats.indirections == 1


class TestDomainStorageSpecifics:
    def test_pointer_indirection_counted(self):
        ds = DomainStorage(quantized_relation())
        ds.get_value(0, 0)
        ds.get_value(1, 0)
        assert ds.stats.indirections == 2
        assert ds.stats.value_reads == 2

    def test_domain_size(self):
        rel = quantized_relation(distinct=5)
        ds = DomainStorage(rel)
        for j in range(3):
            assert ds.domain_size(j) == len(np.unique(rel.values[:, j]))


class TestRingStorageSpecifics:
    def test_chains_resolve(self):
        rs = RingStorage(quantized_relation(n=50, distinct=4))
        vm = rs.values_matrix()
        for row in range(50):
            for attr in range(3):
                assert rs.get_value(row, attr) == vm[row, attr]

    def test_chain_cost_counted(self):
        """Ring reads cost at least one indirection; non-heads more."""
        rs = RingStorage(quantized_relation(n=100, distinct=2, seed=9))
        rs.stats.reset()
        rs.get_value(50, 0)
        assert rs.stats.indirections >= 1

    def test_chain_lengths_vary(self):
        rs = RingStorage(quantized_relation(n=100, distinct=2, seed=9))
        lengths = {rs.chain_length(r, 0) for r in range(100)}
        assert 0 in lengths          # heads
        assert max(lengths) > 0      # some tuple must walk

    def test_ring_size_accounts_rings_once(self):
        rel = quantized_relation(n=1000, distinct=4)
        rs = RingStorage(rel)
        # 3 attrs * 4 rings: value+pointer each, plus per-tuple pointers.
        expected = 1000 * (2 * 4 + 3 * 4) + 3 * 4 * (4 + 4)
        assert rs.size_bytes() == expected


@pytest.mark.parametrize("storage_cls", ALL_STORAGES)
class TestBulkRead:
    def test_read_all_values_matches_matrix(self, storage_cls):
        s = storage_cls(quantized_relation(n=40))
        assert np.array_equal(s.read_all_values(), s.values_matrix())

    def test_read_all_values_charges_like_cell_loop(self, storage_cls):
        """The bulk read's analytic charge equals a full get_value sweep
        — the fast path's access accounting is exact, not approximate."""
        rel = quantized_relation(n=40, distinct=4, seed=9)
        looped = storage_cls(rel)
        for row in range(looped.cardinality):
            for attr in range(looped.dimensions):
                looped.get_value(row, attr)
        bulk = storage_cls(rel)
        bulk.read_all_values()
        assert (
            bulk.stats.value_reads,
            bulk.stats.id_reads,
            bulk.stats.indirections,
        ) == (
            looped.stats.value_reads,
            looped.stats.id_reads,
            looped.stats.indirections,
        )


class TestAccessStats:
    def test_merge_and_reset(self):
        from repro.storage import AccessStats

        a, b = AccessStats(), AccessStats()
        a.value_reads = 3
        b.id_reads = 2
        b.indirections = 5
        a.merge(b)
        assert (a.value_reads, a.id_reads, a.indirections) == (3, 2, 5)
        a.reset()
        assert a.value_reads == 0
        assert "values=0" in repr(a)
