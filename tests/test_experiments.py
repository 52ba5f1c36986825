"""Tests for the experiment harness (smoke scale)."""

import pytest

from repro.experiments import (
    SMOKE,
    FigureResult,
    Series,
    clear_run_cache,
    figure_5a,
    figure_5b,
    get_scale,
    manet_panel,
    static_drr_series,
    static_panel,
)
from repro.experiments.config import DEFAULT, PAPER
from repro.experiments.manet_common import ManetPoint, run_manet_point


class TestScales:
    def test_get_scale(self):
        assert get_scale("smoke") is SMOKE
        assert get_scale("default") is DEFAULT
        assert get_scale("paper") is PAPER
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_paper_scale_matches_table6(self):
        assert PAPER.static_cardinalities[0] == 100_000
        assert PAPER.static_cardinalities[-1] == 1_000_000
        assert PAPER.device_counts == (9, 16, 25, 36, 49, 64, 81, 100)
        assert PAPER.dimensionalities == (2, 3, 4, 5)
        assert PAPER.sim_time == 7200.0
        assert PAPER.queries_per_device == (1, 5)
        assert PAPER.query_distances == (100.0, 250.0, 500.0)


class TestFigureResult:
    def test_add_series_validates_length(self):
        fig = FigureResult("F", "t", "x", [1, 2, 3])
        with pytest.raises(ValueError):
            fig.add_series("s", [1.0])

    def test_get_series(self):
        fig = FigureResult("F", "t", "x", [1])
        fig.add_series("a", [0.5])
        assert fig.get("a") == [0.5]
        with pytest.raises(KeyError):
            fig.get("b")

    def test_render_contains_values(self):
        fig = FigureResult("Figure X", "demo", "n", [10, 20])
        fig.add_series("s1", [0.5, None])
        text = fig.render()
        assert "Figure X" in text
        assert "0.5" in text
        assert "-" in text  # the None

    def test_empty_series_name_rejected(self):
        with pytest.raises(ValueError):
            Series("", [])


class TestFigure5:
    def test_fig5a_shapes(self):
        fig = figure_5a(SMOKE)
        names = [s.name for s in fig.series]
        assert names == ["HS-IN", "FS-IN", "HS-AC", "FS-AC"]
        # HS beats FS pointwise, both distributions
        for tag in ("IN", "AC"):
            hs, fs = fig.get(f"HS-{tag}"), fig.get(f"FS-{tag}")
            assert all(h < f for h, f in zip(hs, fs))
        # cost grows with cardinality
        for s in fig.series:
            assert s.values[-1] > s.values[0]

    def test_fig5b_shapes(self):
        fig = figure_5b(SMOKE)
        hs, fs = fig.get("HS"), fig.get("FS")
        assert all(h < f for h, f in zip(hs, fs))
        assert fs[-1] > fs[0]  # dimensionality hurts


class TestStaticDrr:
    def test_series_names_and_sanity(self):
        series = static_drr_series(10_000, 2, 9, "independent", seed=1)
        assert set(series) == {
            "SF-OVE", "SF-EXT", "SF-UNE", "DF-OVE", "DF-EXT", "DF-UNE",
        }
        for value in series.values():
            assert value is None or -1.0 <= value <= 1.0

    def test_dynamic_beats_single(self):
        series = static_drr_series(20_000, 2, 25, "independent", seed=2)
        assert series["DF-EXT"] >= series["SF-EXT"]

    def test_panel_grid(self):
        fig = static_panel("b", "independent", SMOKE)
        assert fig.x_values == list(SMOKE.dimensionalities)
        assert len(fig.series) == 6

    def test_invalid_panel(self):
        with pytest.raises(ValueError):
            static_panel("z", "independent", SMOKE)


class TestManet:
    def test_run_point_and_cache(self):
        clear_run_cache()
        point = ManetPoint(
            strategy="df", distance=250.0, cardinality=5_000, dimensions=2,
            devices=9, distribution="independent", scale_name="smoke",
            seed=123,
        )
        a = run_manet_point(point, SMOKE)
        b = run_manet_point(point, SMOKE)
        assert a is b  # memoised
        assert a.issued > 0

    def test_scale_mismatch_rejected(self):
        point = ManetPoint(
            strategy="df", distance=250.0, cardinality=5_000, dimensions=2,
            devices=9, distribution="independent", scale_name="paper",
            seed=123,
        )
        with pytest.raises(ValueError, match="scale"):
            run_manet_point(point, SMOKE)

    def test_metric_validation(self):
        with pytest.raises(ValueError, match="unknown metric"):
            manet_panel("a", "independent", "latency", SMOKE)

    def test_distribution_validation(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            manet_panel("a", "correlated", "drr", SMOKE)
