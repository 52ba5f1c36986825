"""Tests for ASCII plotting, markdown reports, and calibration helpers."""

import pytest

from repro.devices import PDA_2006, calibrate
from repro.experiments import FigureResult
from repro.experiments.plotting import ascii_plot
from repro.experiments.report import markdown_report, markdown_table


@pytest.fixture
def figure():
    fig = FigureResult("Figure T", "test panel", "n", [1, 2, 3, 4])
    fig.add_series("up", [1.0, 2.0, 3.0, 4.0])
    fig.add_series("down", [4.0, 3.0, None, 1.0])
    return fig


class TestAsciiPlot:
    def test_contains_title_axis_legend(self, figure):
        text = ascii_plot(figure)
        assert "Figure T" in text
        assert "legend:" in text
        assert "o=up" in text and "x=down" in text

    def test_glyph_positions_monotone(self, figure):
        """The 'up' series' glyphs must appear on strictly rising rows
        (lower row index = higher value)."""
        text = ascii_plot(figure, width=40, height=10)
        rows = [
            (r, line.index("o"))
            for r, line in enumerate(text.splitlines())
            if "o" in line and "|" in line
        ]
        # glyph columns increase left to right while rows decrease
        rows.sort(key=lambda rc: rc[1])
        row_indices = [r for r, _ in rows]
        assert row_indices == sorted(row_indices, reverse=True)

    def test_handles_all_none_series(self):
        fig = FigureResult("F", "t", "x", [1, 2])
        fig.add_series("empty", [None, None])
        assert "(no data)" in ascii_plot(fig)

    def test_constant_series(self):
        fig = FigureResult("F", "t", "x", [1, 2])
        fig.add_series("flat", [5.0, 5.0])
        text = ascii_plot(fig)
        assert "o" in text

    def test_too_small_plot_rejected(self, figure):
        with pytest.raises(ValueError):
            ascii_plot(figure, width=4, height=2)


class TestMarkdownReport:
    def test_table_structure(self, figure):
        table = markdown_table(figure)
        lines = table.splitlines()
        assert lines[0].startswith("### Figure T")
        assert lines[2] == "| n | up | down |"
        assert "| 3 | 3 | – |" in table  # None renders as dash

    def test_report_batches_figures(self, figure):
        report = markdown_report([figure, figure], title="Demo", preamble="p.")
        assert report.startswith("# Demo")
        assert report.count("### Figure T") == 2
        assert "p." in report


class TestCalibration:
    def test_calibrate_scales_all_costs(self):
        slow = calibrate(PDA_2006, slowdown=2.0)
        assert slow.id_compare == PDA_2006.id_compare * 2
        assert slow.value_compare == PDA_2006.value_compare * 2

    def test_calibrate_invalid(self):
        with pytest.raises(ValueError):
            calibrate(slowdown=0.0)
