"""Figures 8 and 9 — DRR in the MANET simulation (Section 5.2.2-II).

Series: DF and BF query forwarding, each at query distances 100, 250,
and 500 (the paper's legend, e.g. "DF-100"). Figure 8 uses independent
data, Figure 9 anti-correlated data. Panels sweep (a) cardinality,
(b) dimensionality, (c) device count.
"""

from __future__ import annotations

from typing import List, Optional

from .config import DEFAULT, ExperimentScale
from .executor import run_points
from .manet_common import ManetPoint, sweep_points
from .runner import FigureResult

__all__ = ["manet_panel", "figure_8a", "figure_8b", "figure_8c",
           "figure_9a", "figure_9b", "figure_9c"]


def manet_panel(
    panel: str,
    distribution: str,
    metric: str,
    scale: ExperimentScale = DEFAULT,
) -> FigureResult:
    """One MANET panel for a chosen metric.

    Args:
        panel: ``a`` / ``b`` / ``c`` sweep.
        distribution: ``independent`` or ``anticorrelated``.
        metric: ``drr`` (Figures 8/9) or ``response`` (Figures 10/11).
        scale: Parameter grids.
    """
    if metric not in ("drr", "response"):
        raise ValueError(f"unknown metric {metric!r}")
    if distribution not in ("independent", "anticorrelated"):
        raise ValueError(f"unknown distribution {distribution!r}")
    x_label, x_values, points = sweep_points(panel, distribution, scale)
    fig = {
        ("drr", "independent"): "8",
        ("drr", "anticorrelated"): "9",
        ("response", "independent"): "10",
        ("response", "anticorrelated"): "11",
    }[metric, distribution]
    result = FigureResult(
        figure=f"Figure {fig}({panel})",
        title=f"MANET {metric} on {distribution} data vs. {x_label}",
        x_label=x_label,
        x_values=x_values,
        notes=(
            f"scale={scale.name}; UNE + dynamic filter; random waypoint + AODV"
        ),
    )
    grid = {
        (strategy, distance, i): ManetPoint(
            strategy=strategy,
            distance=distance,
            cardinality=cardinality,
            dimensions=dims,
            devices=devices,
            distribution=distribution,
            scale_name=scale.name,
            seed=scale.seed + 1000 * i,
        )
        for strategy in ("df", "bf")
        for distance in scale.query_distances
        for i, (cardinality, dims, devices) in enumerate(points)
    }
    # One fan-out over the whole panel grid; the per-series loops below
    # are then pure cache lookups.
    metrics_by_point = run_points(grid.values(), scale)
    for strategy in ("df", "bf"):
        for distance in scale.query_distances:
            values: List[Optional[float]] = []
            for i in range(len(points)):
                metrics = metrics_by_point[grid[strategy, distance, i]]
                values.append(
                    metrics.drr if metric == "drr" else metrics.response_time
                )
            result.add_series(f"{strategy.upper()}-{int(distance)}", values)
    return result


def figure_8a(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """MANET DRR vs. cardinality, independent data."""
    return manet_panel("a", "independent", "drr", scale)


def figure_8b(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """MANET DRR vs. dimensionality, independent data."""
    return manet_panel("b", "independent", "drr", scale)


def figure_8c(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """MANET DRR vs. device count, independent data."""
    return manet_panel("c", "independent", "drr", scale)


def figure_9a(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """MANET DRR vs. cardinality, anti-correlated data."""
    return manet_panel("a", "anticorrelated", "drr", scale)


def figure_9b(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """MANET DRR vs. dimensionality, anti-correlated data."""
    return manet_panel("b", "anticorrelated", "drr", scale)


def figure_9c(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """MANET DRR vs. device count, anti-correlated data."""
    return manet_panel("c", "anticorrelated", "drr", scale)
