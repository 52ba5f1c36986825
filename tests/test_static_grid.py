"""Tests for the static-grid pre-test runner (Section 5.2.2-I)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Estimation, skyline_of_relation
from repro.data import make_global_dataset
from repro.metrics import data_reduction_rate
from repro.protocol import run_static_grid, run_static_query

from .oracles.static_grid import static_query_reference


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(8000, 2, 9, "independent", seed=55, value_step=1.0)


class TestCorrectness:
    def test_result_is_global_skyline(self, dataset):
        """Distance is ignored, so every query must return the skyline of
        the whole global relation."""
        want = sorted(
            map(tuple, skyline_of_relation(dataset.global_relation).values.tolist())
        )
        for originator in range(dataset.devices):
            outcome = run_static_query(dataset, originator)
            got = sorted(map(tuple, outcome.result.values.tolist()))
            assert got == want

    @pytest.mark.parametrize("estimation", list(Estimation))
    @pytest.mark.parametrize("dynamic", [True, False])
    def test_all_variants_correct(self, dataset, estimation, dynamic):
        outcome = run_static_query(
            dataset, 4, dynamic_filter=dynamic, estimation=estimation
        )
        want = sorted(
            map(tuple, skyline_of_relation(dataset.global_relation).values.tolist())
        )
        assert sorted(map(tuple, outcome.result.values.tolist())) == want

    def test_straightforward_strategy_correct(self, dataset):
        outcome = run_static_query(dataset, 0, use_filter=False)
        want = sorted(
            map(tuple, skyline_of_relation(dataset.global_relation).values.tolist())
        )
        assert sorted(map(tuple, outcome.result.values.tolist())) == want


class TestAccounting:
    def test_every_other_device_contributes_once(self, dataset):
        outcome = run_static_query(dataset, 4)
        devices = [c.device for c in outcome.contributions]
        assert sorted(devices) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_unfiltered_sizes_match_cache(self, dataset):
        outcome = run_static_query(dataset, 4, use_filter=False)
        for c in outcome.contributions:
            # The relation's own cached skyline, which the query stored.
            sky = dataset.local(c.device).skyline_rows()
            assert c.unreduced_size == sky.shape[0]
            assert c.reduced_size == c.unreduced_size

    def test_filter_only_ever_shrinks(self, dataset):
        outcome = run_static_query(dataset, 4)
        for c in outcome.contributions:
            assert c.reduced_size <= c.unreduced_size

    def test_dynamic_filter_drr_at_least_single(self, dataset):
        """Dynamic promotion can only improve (or tie) pooled DRR on the
        same dataset — the filter is never replaced by a weaker one."""
        sf = run_static_grid(dataset, dynamic_filter=False,
                             estimation=Estimation.EXACT)
        df = run_static_grid(dataset, dynamic_filter=True,
                             estimation=Estimation.EXACT)
        assert data_reduction_rate(df) >= data_reduction_rate(sf) - 0.02

    def test_invalid_originator(self, dataset):
        with pytest.raises(ValueError):
            run_static_query(dataset, 99)

    def test_run_static_grid_subset_of_originators(self, dataset):
        outcomes = run_static_grid(dataset, originators=[0, 4])
        assert [o.originator for o in outcomes] == [0, 4]


class TestAgainstReference:
    """Every grid device runs the simulated devices' pipeline; a
    row-at-a-time reference (BFS, BNL skylines, an explicit filter pass
    and a Python max-VDR loop) must agree on every size pair, on the
    originator's ``|SK_org|`` and on the result rows."""

    @pytest.mark.parametrize("use_filter", [True, False])
    @pytest.mark.parametrize("dynamic", [True, False])
    @pytest.mark.parametrize("estimation", list(Estimation))
    @given(
        st.integers(200, 1500), st.integers(2, 3), st.sampled_from([4, 9]),
        st.sampled_from(["independent", "anticorrelated"]),
        st.sampled_from([0.0, 0.3]), st.integers(0, 10_000),
        st.integers(0, 8),
    )
    @settings(max_examples=8, deadline=None)
    def test_matches_reference(self, use_filter, dynamic, estimation,
                               cardinality, dims, devices, distribution,
                               replication, seed, originator):
        # Replicated sites put copies of a filter's site on other
        # devices, which the filter pass must drop.
        dataset = make_global_dataset(
            cardinality, dims, devices, distribution, seed=seed,
            value_step=1.0, replication=replication,
        )
        originator %= devices
        got = run_static_query(
            dataset, originator, dynamic_filter=dynamic,
            estimation=estimation, use_filter=use_filter,
        )
        want = static_query_reference(
            dataset, originator, dynamic, estimation, use_filter
        )
        assert got.local_unreduced == want.local_unreduced
        assert [
            (c.device, c.unreduced_size, c.reduced_size)
            for c in got.contributions
        ] == want.contributions
        assert sorted(
            (x, y, tuple(v), int(i))
            for (x, y), v, i in zip(
                got.result.xy.tolist(), got.result.values.tolist(),
                got.result.site_ids.tolist(),
            )
        ) == want.result
