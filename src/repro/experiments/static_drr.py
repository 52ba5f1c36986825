"""Figures 6 and 7 — data reduction rate in the static setting.

Six series per panel: single filter (SF) vs. dynamically updated filter
(DF), each under over-estimated (OVE), exact (EXT), and under-estimated
(UNE) dominating regions. Every device originates one query; DRR is
pooled over all of them (Formula 1).

Panels: (a) global cardinality, (b) dimensionality, (c) device count.
Figure 6 uses independent data, Figure 7 anti-correlated data.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.filtering import Estimation
from ..data.partition import make_global_dataset
from ..metrics.drr import data_reduction_rate
from ..protocol.static_grid import run_static_grid
from .config import DEFAULT, ExperimentScale
from .runner import FigureResult

__all__ = ["static_drr_series", "figure_6a", "figure_6b", "figure_6c",
           "figure_7a", "figure_7b", "figure_7c", "static_panel"]

_SERIES = (
    ("SF-OVE", False, Estimation.OVER),
    ("SF-EXT", False, Estimation.EXACT),
    ("SF-UNE", False, Estimation.UNDER),
    ("DF-OVE", True, Estimation.OVER),
    ("DF-EXT", True, Estimation.EXACT),
    ("DF-UNE", True, Estimation.UNDER),
)


def static_drr_series(
    cardinality: int,
    dimensions: int,
    devices: int,
    distribution: str,
    seed: int,
) -> Dict[str, Optional[float]]:
    """DRR of all six filtering variants on one dataset."""
    dataset = make_global_dataset(
        cardinality, dimensions, devices, distribution,
        seed=seed, value_step=1.0,
    )
    out: Dict[str, Optional[float]] = {}
    for name, dynamic, estimation in _SERIES:
        outcomes = run_static_grid(
            dataset, dynamic_filter=dynamic, estimation=estimation,
            assemble=False,
        )
        out[name] = data_reduction_rate(outcomes)
    return out


def static_panel(
    panel: str,
    distribution: str,
    scale: ExperimentScale = DEFAULT,
) -> FigureResult:
    """One panel of Figure 6 (independent) or 7 (anti-correlated).

    Args:
        panel: ``a`` (cardinality sweep), ``b`` (dimensionality sweep),
            or ``c`` (device-count sweep).
        distribution: ``independent`` or ``anticorrelated``.
        scale: Parameter grids.
    """
    fig_no = "6" if distribution == "independent" else "7"
    dist_tag = "independent" if distribution == "independent" else "anti-correlated"
    if panel == "a":
        x_values: List = list(scale.static_cardinalities)
        points = [
            (c, 2, scale.static_devices) for c in scale.static_cardinalities
        ]
        x_label = "cardinality"
    elif panel == "b":
        x_values = list(scale.dimensionalities)
        points = [
            (scale.static_fixed_cardinality, n, scale.static_devices)
            for n in scale.dimensionalities
        ]
        x_label = "dimensions"
    elif panel == "c":
        x_values = list(scale.device_counts)
        points = [
            (scale.static_fixed_cardinality, 2, m) for m in scale.device_counts
        ]
        x_label = "devices"
    else:
        raise ValueError(f"panel must be a, b, or c, got {panel!r}")

    result = FigureResult(
        figure=f"Figure {fig_no}({panel})",
        title=f"Static-setting DRR on {dist_tag} data vs. {x_label}",
        x_label=x_label,
        x_values=x_values,
        notes=f"scale={scale.name}; every device originates once",
    )
    rows = [
        static_drr_series(
            cardinality, dims, devices, distribution, seed=scale.seed + i
        )
        for i, (cardinality, dims, devices) in enumerate(points)
    ]
    for name, _, _ in _SERIES:
        result.add_series(name, [row[name] for row in rows])
    return result


def figure_6a(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """DRR vs. cardinality, independent data."""
    return static_panel("a", "independent", scale)


def figure_6b(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """DRR vs. dimensionality, independent data."""
    return static_panel("b", "independent", scale)


def figure_6c(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """DRR vs. device count, independent data."""
    return static_panel("c", "independent", scale)


def figure_7a(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """DRR vs. cardinality, anti-correlated data."""
    return static_panel("a", "anticorrelated", scale)


def figure_7b(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """DRR vs. dimensionality, anti-correlated data."""
    return static_panel("b", "anticorrelated", scale)


def figure_7c(scale: ExperimentScale = DEFAULT) -> FigureResult:
    """DRR vs. device count, anti-correlated data."""
    return static_panel("c", "anticorrelated", scale)
