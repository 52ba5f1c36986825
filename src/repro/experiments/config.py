"""Experiment parameter grids (Tables 6 and 7 of the paper).

Three scales are provided:

* ``PAPER`` — the paper's own grids (100K-1M tuples, 2 h simulations).
  Faithful but slow in pure Python; available for overnight runs.
* ``DEFAULT`` — the same sweeps at reduced cardinality / workload, sized
  so the full figure suite regenerates in minutes on a laptop. All
  trends the paper reports are scale-stable (EXPERIMENTS.md records
  paper-vs-measured at this scale).
* ``SMOKE`` — minimal grids for CI and pytest-benchmark runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ExperimentScale", "PAPER", "DEFAULT", "SMOKE", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """One complete grid of experiment parameters.

    Attributes mirror Table 6 (data/grid parameters) and Table 7
    (simulation parameters); the ``manet_*`` knobs size the MANET runs.
    """

    name: str
    # Figure 5: local processing on the device.
    local_cardinalities: Tuple[int, ...]
    local_dim_cardinality: int
    dimensionalities: Tuple[int, ...]
    # Figures 6/7: static pre-tests.
    static_cardinalities: Tuple[int, ...]
    static_fixed_cardinality: int
    static_devices: int
    device_counts: Tuple[int, ...]
    # Figures 8-12: MANET simulation.
    manet_cardinalities: Tuple[int, ...]
    manet_fixed_cardinality: int
    manet_devices: int
    manet_device_counts: Tuple[int, ...]
    sim_time: float
    queries_per_device: Tuple[int, int]
    query_distances: Tuple[float, ...] = (100.0, 250.0, 500.0)
    seed: int = 20060403  # ICDE 2006


PAPER = ExperimentScale(
    name="paper",
    local_cardinalities=tuple(range(10_000, 100_001, 10_000)),
    local_dim_cardinality=50_000,
    dimensionalities=(2, 3, 4, 5),
    static_cardinalities=tuple(range(100_000, 1_000_001, 100_000)),
    static_fixed_cardinality=500_000,
    static_devices=25,
    device_counts=(9, 16, 25, 36, 49, 64, 81, 100),
    manet_cardinalities=tuple(range(100_000, 1_000_001, 100_000)),
    manet_fixed_cardinality=500_000,
    manet_devices=25,
    manet_device_counts=(9, 16, 25, 36, 49, 64, 81, 100),
    sim_time=7200.0,
    queries_per_device=(1, 5),
)

DEFAULT = ExperimentScale(
    name="default",
    local_cardinalities=(2_000, 5_000, 10_000, 20_000, 40_000),
    local_dim_cardinality=10_000,
    dimensionalities=(2, 3, 4, 5),
    static_cardinalities=(50_000, 100_000, 200_000, 350_000, 500_000),
    static_fixed_cardinality=200_000,
    static_devices=25,
    device_counts=(9, 16, 25, 49, 100),
    manet_cardinalities=(50_000, 100_000, 200_000),
    manet_fixed_cardinality=100_000,
    manet_devices=25,
    manet_device_counts=(9, 16, 25, 49),
    sim_time=1800.0,
    queries_per_device=(1, 2),
)

SMOKE = ExperimentScale(
    name="smoke",
    local_cardinalities=(500, 1_000, 2_000),
    local_dim_cardinality=1_000,
    dimensionalities=(2, 3, 4),
    static_cardinalities=(10_000, 20_000, 40_000),
    static_fixed_cardinality=20_000,
    static_devices=25,
    device_counts=(9, 25, 49),
    manet_cardinalities=(10_000, 20_000),
    manet_fixed_cardinality=20_000,
    manet_devices=25,
    manet_device_counts=(9, 25),
    sim_time=600.0,
    queries_per_device=(1, 1),
    query_distances=(100.0, 250.0, 500.0),
)

_SCALES = {s.name: s for s in (PAPER, DEFAULT, SMOKE)}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale by name (``paper`` / ``default`` / ``smoke``)."""
    try:
        return _SCALES[name]
    except KeyError:
        raise ValueError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None
