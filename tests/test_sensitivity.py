"""Tests for the sensitivity and fault sweeps (smoke scale)."""

import pytest

from repro.experiments import SMOKE, ManetPoint, clear_run_cache
from repro.experiments.sensitivity import (
    cpu_sweep,
    fault_loss_sweep,
    radio_range_sweep,
    speed_sweep,
)
from repro.experiments.tracing import point_slug


class TestSweeps:
    def test_radio_range_sweep_structure(self):
        fig = radio_range_sweep(ranges=(150.0, 400.0), scale=SMOKE)
        assert fig.x_values == [150.0, 400.0]
        assert [s.name for s in fig.series] == ["BF", "DF"]

    def test_longer_range_reaches_more_devices(self):
        fig = radio_range_sweep(
            ranges=(120.0, 400.0), scale=SMOKE, metric="participants"
        )
        for name in ("BF", "DF"):
            low, high = fig.get(name)
            if low is not None and high is not None:
                assert high >= low

    def test_cpu_sweep_slower_cpu_slower_response(self):
        fig = cpu_sweep(slowdowns=(0.1, 10.0), scale=SMOKE)
        for name in ("BF", "DF"):
            fast, slow = fig.get(name)
            assert fast is not None and slow is not None
            assert slow > fast

    def test_cpu_sweep_df_hurts_more(self):
        """Serial DF amplifies CPU slowdown more than parallel BF."""
        fig = cpu_sweep(slowdowns=(0.1, 10.0), scale=SMOKE)
        bf_fast, bf_slow = fig.get("BF")
        df_fast, df_slow = fig.get("DF")
        assert (df_slow - df_fast) > (bf_slow - bf_fast)

    def test_speed_sweep_runs(self):
        fig = speed_sweep(speeds=(2.0, 30.0), scale=SMOKE)
        assert len(fig.series) == 2

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            radio_range_sweep(ranges=(250.0,), scale=SMOKE, metric="qps")


class TestFaultSweeps:
    def test_loss_degrades_coverage_and_bf_outlasts_df(self):
        """Lossless runs see the whole answer; coverage never rises with
        the loss rate; BF's direct replies outlast DF's single token."""
        fig = fault_loss_sweep(
            loss_rates=(0.0, 0.1, 0.3, 0.5), scale=SMOKE, metric="coverage"
        )
        for name in ("BF", "DF"):
            coverage = fig.get(name)
            assert coverage[0] == 1.0
            assert all(a >= b for a, b in zip(coverage, coverage[1:]))
        assert fig.get("BF")[-1] > fig.get("DF")[-1]

    def test_second_metric_reuses_the_runs(self, monkeypatch):
        """A response sweep after a coverage sweep over the same grid is
        pure cache lookups: one simulation per point."""
        from repro.experiments import configure, manet_common

        clear_run_cache()
        configure(workers=1)
        computed = []
        real = manet_common.compute_manet_point

        def counting(point, scale, observer=None):
            computed.append(point)
            return real(point, scale, observer)

        monkeypatch.setattr(manet_common, "compute_manet_point", counting)
        rates = (0.0, 0.3)
        fault_loss_sweep(loss_rates=rates, scale=SMOKE, metric="coverage")
        fault_loss_sweep(loss_rates=rates, scale=SMOKE, metric="response")
        assert len(computed) == 2 * len(rates)
        assert len(set(computed)) == len(computed)


class TestPointSlug:
    def test_figure_point_slug_is_unchanged(self):
        point = ManetPoint(
            strategy="bf", distance=250.0, cardinality=20_000,
            dimensions=2, devices=25, distribution="independent",
            scale_name="smoke", seed=7,
        )
        assert point_slug(point) == "bf_d250_c20000_n2_m25_independent_s7"

    def test_sweep_settings_tag_the_slug(self):
        point = ManetPoint(
            strategy="df", distance=250.0, cardinality=20_000,
            dimensions=2, devices=25, distribution="independent",
            scale_name="smoke", seed=7, speed_range=(6.0, 30.0),
            loss_rate=0.3,
        )
        assert point_slug(point) == (
            "df_d250_c20000_n2_m25_independent_s7_v6-30_loss0.3"
        )
