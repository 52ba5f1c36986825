"""Sensitivity and fault sweeps beyond the paper's grids.

The paper fixes the radio parameters, device speed and device CPU
class, and assumes every frame and device survives. These sweeps ask
how robust its conclusions are to each:

* :func:`radio_range_sweep` — connectivity is the lifeblood of both
  strategies; short ranges partition the network, long ranges make BF's
  flood cheap.
* :func:`speed_sweep` — faster devices break more routes mid-query.
* :func:`cpu_sweep` — BF's advantage rests on parallelizing *slow* local
  processing; on fast CPUs the network dominates and the gap narrows.
* :func:`fault_loss_sweep` — coverage (or response time) vs. the
  independent frame-loss rate. BF's redundancy (every device replies
  directly, with ACK'd retransmission) should degrade gently; DF's
  single token is fragile, but the originator's watchdog re-issues it.
* :func:`fault_churn_sweep` — coverage (or response time) vs. the
  fraction of devices that crash (and later recover) mid-run.

Each sweep point is a :class:`~repro.experiments.manet_common.ManetPoint`
at the Figure 10 fixed configuration (fixed cardinality, 2 attributes,
the scale's device count, d = 250 m) with one setting moved, run
through :func:`~repro.experiments.executor.run_points` — so the sweeps
share the run cache, the worker pool and per-run telemetry with the
figures, and a response sweep after a coverage sweep over the same grid
is pure cache lookups. Each returns a
:class:`~repro.experiments.runner.FigureResult`.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from ..metrics.collector import RunMetrics
from .config import DEFAULT, ExperimentScale
from .executor import run_points
from .manet_common import MEAN_DOWNTIME, ManetPoint
from .runner import FigureResult

__all__ = [
    "radio_range_sweep",
    "speed_sweep",
    "cpu_sweep",
    "fault_loss_sweep",
    "fault_churn_sweep",
]

_METRICS: Dict[str, Callable[[RunMetrics], object]] = {
    "response": lambda m: m.response_time,
    "drr": lambda m: m.drr,
    "messages": lambda m: m.messages.protocol_per_query,
    "participants": lambda m: m.participants_per_query,
    "coverage": lambda m: m.coverage,
}


def _sweep(
    result: FigureResult,
    scale: ExperimentScale,
    metric: str,
    seed_base: int,
    field: str,
    values: Sequence,
) -> FigureResult:
    """BF and DF series over ``values`` of one :class:`ManetPoint` field.

    Grid point ``i`` runs at seed ``scale.seed + seed_base + i`` for
    both strategies.
    """
    try:
        pick = _METRICS[metric]
    except KeyError:
        raise ValueError(f"unknown metric {metric!r}") from None
    grid = {
        (strategy, i): ManetPoint(
            strategy=strategy,
            distance=250.0,
            cardinality=scale.manet_fixed_cardinality,
            dimensions=2,
            devices=scale.manet_devices,
            distribution="independent",
            scale_name=scale.name,
            seed=scale.seed + seed_base + i,
            **{field: value},
        )
        for strategy in ("bf", "df")
        for i, value in enumerate(values)
    }
    metrics_by_point = run_points(grid.values(), scale)
    for strategy in ("bf", "df"):
        result.add_series(strategy.upper(), [
            pick(metrics_by_point[grid[strategy, i]])
            for i in range(len(values))
        ])
    return result


def radio_range_sweep(
    ranges: Sequence[float] = (150.0, 250.0, 400.0),
    scale: ExperimentScale = DEFAULT,
    metric: str = "response",
) -> FigureResult:
    """BF vs DF across radio ranges.

    Short ranges fragment the network (fewer participants, partial
    results); long ranges collapse hop counts.
    """
    result = FigureResult(
        figure="Sensitivity: radio range",
        title=f"{metric} vs. radio range (m)",
        x_label="radio range",
        x_values=list(ranges),
        notes=f"scale={scale.name}",
    )
    return _sweep(result, scale, metric, 10_000, "radio_range", ranges)


def speed_sweep(
    speeds: Sequence[float] = (2.0, 10.0, 30.0),
    scale: ExperimentScale = DEFAULT,
    metric: str = "participants",
) -> FigureResult:
    """BF vs DF across device speeds (max of a 1:5 speed band)."""
    result = FigureResult(
        figure="Sensitivity: device speed",
        title=f"{metric} vs. max device speed (m/s)",
        x_label="max speed",
        x_values=list(speeds),
        notes=f"scale={scale.name}; speed band = [max/5, max]",
    )
    bands = [(vmax / 5.0, vmax) for vmax in speeds]
    return _sweep(result, scale, metric, 20_000, "speed_range", bands)


def cpu_sweep(
    slowdowns: Sequence[float] = (0.1, 1.0, 10.0),
    scale: ExperimentScale = DEFAULT,
    metric: str = "response",
) -> FigureResult:
    """BF vs DF across device CPU classes.

    ``slowdown=1`` is the 2006 PDA; 0.1 a device ten times faster; 10 a
    sensor-class device ten times slower. The BF-over-DF response-time
    ratio should *grow* with slowdown — parallelism pays the most when
    local processing dominates.
    """
    result = FigureResult(
        figure="Sensitivity: device CPU",
        title=f"{metric} vs. CPU slowdown factor",
        x_label="slowdown",
        x_values=list(slowdowns),
        notes=f"scale={scale.name}; 1.0 = the paper's PDA",
    )
    return _sweep(result, scale, metric, 30_000, "slowdown", slowdowns)


def fault_loss_sweep(
    loss_rates: Sequence[float] = (0.0, 0.1, 0.3, 0.5),
    scale: ExperimentScale = DEFAULT,
    metric: str = "coverage",
) -> FigureResult:
    """BF vs DF degradation across frame-loss rates."""
    result = FigureResult(
        figure="Faults: loss rate",
        title=f"{metric} vs. frame loss rate",
        x_label="loss rate",
        x_values=list(loss_rates),
        notes=f"scale={scale.name}; coverage 1.0 = full attainable answer",
    )
    return _sweep(result, scale, metric, 40_000, "loss_rate", loss_rates)


def fault_churn_sweep(
    crash_fractions: Sequence[float] = (0.0, 0.1, 0.2, 0.4),
    scale: ExperimentScale = DEFAULT,
    metric: str = "coverage",
) -> FigureResult:
    """BF vs DF degradation across device-churn intensities.

    ``crash_fraction`` of the fleet crashes once each at a random time,
    staying down for an exponential holdoff (mean
    :data:`~repro.experiments.manet_common.MEAN_DOWNTIME`) before
    rejoining clean. The schedule is drawn from the point's seed, so a
    rerun replays the identical churn.
    """
    result = FigureResult(
        figure="Faults: device churn",
        title=f"{metric} vs. crashed device fraction",
        x_label="crash fraction",
        x_values=list(crash_fractions),
        notes=(
            f"scale={scale.name}; crashed devices rejoin after "
            f"~{MEAN_DOWNTIME:.0f} s"
        ),
    )
    return _sweep(
        result, scale, metric, 50_000, "crash_fraction", crash_fractions
    )
