"""Shared MANET experiment driver for Figures 8-12.

One simulation run yields DRR, response time, and message counts at
once; the per-figure modules slice the same memoised runs, so
regenerating Figure 10 after Figure 8 costs nothing extra. Runs are
cached at two layers: an in-process memo (same object back within one
interpreter) and the persistent on-disk
:class:`~repro.experiments.executor.RunCache`, keyed on the point, the
scale, and the executor's code-schema version — so re-running a figure
suite across invocations skips every already-computed point.

Simulation settings follow Table 7 (random waypoint at 2-10 m/s, 120 s
holding time, a 250 m radio, AODV) and the PDA cost model of Section
5.2.3; the paper's under-estimated, dynamically updated filtering tuple
is used throughout ("we use only under-estimation ... and dynamically
update them between mobile devices", Section 5.2.2-II). The sensitivity
and fault sweeps move one of those settings at a time through the
point's own fields, so every sweep point shares this driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..data.partition import make_global_dataset
from ..data.workload import generate_workload
from ..devices.cost_model import PDA_2006, calibrate
from ..faults import FaultSchedule
from ..metrics.collector import RunMetrics, collect_metrics
from ..net.mobility import DEFAULT_SPEED_RANGE
from ..net.world import RadioConfig
from ..obs import Observer, telemetry_root
from ..protocol.coordinator import SimulationConfig, run_manet_simulation
from ..protocol.device import ProtocolConfig
from .config import DEFAULT, ExperimentScale

__all__ = [
    "MEAN_DOWNTIME",
    "ManetPoint",
    "compute_manet_point",
    "run_manet_point",
    "store_run",
    "clear_run_cache",
]


#: Mean exponential downtime, in seconds, of a device that crashes in
#: a churn point.
MEAN_DOWNTIME = 120.0


@dataclass(frozen=True)
class ManetPoint:
    """Identity of one simulation run in the sweep grids.

    The last five fields are the settings the sensitivity and fault
    sweeps move; their defaults are the paper's setup, which every
    figure point runs.

    Attributes:
        radio_range: Unit-disk radio range in metres.
        speed_range: Random-waypoint speed band in m/s.
        slowdown: CPU slowdown of the device cost model against the
            paper's PDA (:func:`~repro.devices.cost_model.calibrate`).
        loss_rate: Independent per-frame loss probability.
        crash_fraction: Fraction of devices that crash once each and
            rejoin after an exponential downtime (mean
            :data:`MEAN_DOWNTIME`).
    """

    strategy: str
    distance: float
    cardinality: int
    dimensions: int
    devices: int
    distribution: str
    scale_name: str
    seed: int
    radio_range: float = 250.0
    speed_range: Tuple[float, float] = DEFAULT_SPEED_RANGE
    slowdown: float = 1.0
    loss_rate: float = 0.0
    crash_fraction: float = 0.0


#: In-process read-through layer above the persistent disk cache.
_RUN_CACHE: Dict[ManetPoint, RunMetrics] = {}


def clear_run_cache() -> None:
    """Drop memoised runs — in-process memo *and* the current on-disk
    cache (tests use this for isolation)."""
    from . import executor

    _RUN_CACHE.clear()
    disk = executor.default_cache()
    if disk is not None:
        disk.clear()


def compute_manet_point(
    point: ManetPoint, scale: ExperimentScale = DEFAULT, observer=None
) -> RunMetrics:
    """Run one full MANET simulation and aggregate it (no caching).

    This is the pure compute path: deterministic in ``(point, scale)``.
    Pool workers call it directly; everything else should go through
    :func:`run_manet_point`. Seeds: the dataset is drawn at
    ``point.seed``, the workload at ``+1``, mobility and loss at ``+2``
    and the fault schedule (when ``crash_fraction > 0``) at ``+3``.

    When ``observer`` is given, the run is traced into it and the
    caller owns its telemetry (:func:`~repro.experiments.tracing.trace_point`
    writes the bundle). Otherwise, when telemetry is enabled
    process-wide via ``REPRO_OBS`` / ``repro --obs``, the run traces
    itself and writes its bundle under ``<dir>/<scale>/<point-slug>/``.
    Tracing is passive — the returned metrics are bit-identical either
    way.
    """
    if point.scale_name != scale.name:
        raise ValueError(
            f"point was built for scale {point.scale_name!r}, got {scale.name!r}"
        )
    obs_dir = telemetry_root() if observer is None else None
    if obs_dir is not None:
        observer = Observer()
    dataset = make_global_dataset(
        point.cardinality,
        point.dimensions,
        point.devices,
        point.distribution,
        seed=point.seed,
        value_step=1.0,
    )
    workload = generate_workload(
        devices=point.devices,
        sim_time=scale.sim_time,
        distance=point.distance,
        queries_per_device=scale.queries_per_device,
        seed=point.seed + 1,
    )
    faults = None
    if point.crash_fraction > 0:
        faults = FaultSchedule.generate(
            node_count=point.devices,
            sim_time=scale.sim_time,
            seed=point.seed + 3,
            crash_fraction=point.crash_fraction,
            mean_downtime=MEAN_DOWNTIME,
        )
    config = SimulationConfig(
        strategy=point.strategy,
        sim_time=scale.sim_time,
        radio=RadioConfig(
            radio_range=point.radio_range, loss_rate=point.loss_rate
        ),
        protocol=ProtocolConfig(
            use_filter=True,
            dynamic_filter=True,
            cost_model=calibrate(PDA_2006, slowdown=point.slowdown),
        ),
        speed_range=point.speed_range,
        seed=point.seed + 2,
        faults=faults,
    )
    result = run_manet_simulation(dataset, workload, config, observer=observer)
    metrics = collect_metrics(result, point.strategy)
    if obs_dir is not None:
        from .tracing import dump_run_telemetry, point_slug

        dump_run_telemetry(
            observer, obs_dir / scale.name / point_slug(point),
            metrics=metrics,
        )
    return metrics


def store_run(
    point: ManetPoint, scale: ExperimentScale, metrics: RunMetrics
) -> None:
    """Record computed metrics in both cache layers."""
    from . import executor

    _RUN_CACHE[point] = metrics
    disk = executor.default_cache()
    if disk is not None:
        disk.put(point, scale, metrics)


def run_manet_point(
    point: ManetPoint, scale: ExperimentScale = DEFAULT
) -> RunMetrics:
    """Run (or recall) one full MANET simulation and aggregate it."""
    from . import executor

    if point.scale_name != scale.name:
        raise ValueError(
            f"point was built for scale {point.scale_name!r}, got {scale.name!r}"
        )
    cached = _RUN_CACHE.get(point)
    if cached is not None:
        return cached
    disk = executor.default_cache()
    if disk is not None:
        metrics = disk.get(point, scale)
        if metrics is not None:
            _RUN_CACHE[point] = metrics
            return metrics
    metrics = compute_manet_point(point, scale)
    store_run(point, scale, metrics)
    return metrics


def sweep_points(
    panel: str,
    distribution: str,
    scale: ExperimentScale,
) -> Tuple[str, list, list]:
    """Grid of one MANET panel: (x_label, x_values, [(card, dims, m)])."""
    if panel == "a":
        xs = list(scale.manet_cardinalities)
        points = [(c, 2, scale.manet_devices) for c in xs]
        return "cardinality", xs, points
    if panel == "b":
        xs = list(scale.dimensionalities)
        points = [
            (scale.manet_fixed_cardinality, n, scale.manet_devices) for n in xs
        ]
        return "dimensions", xs, points
    if panel == "c":
        xs = list(scale.manet_device_counts)
        points = [(scale.manet_fixed_cardinality, 2, m) for m in xs]
        return "devices", xs, points
    raise ValueError(f"panel must be a, b, or c, got {panel!r}")
