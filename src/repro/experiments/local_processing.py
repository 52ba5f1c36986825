"""Figure 5 — local skyline processing time on the device (Section 5.1).

Hybrid storage (HS, the paper's scheme) versus flat storage (FS, BNL
baseline), on independent (IN) and anti-correlated (AC) data. The paper
measured wall time on an HP iPAQ; we run the same faithful per-tuple
algorithms, count their operations exactly, and convert counts into
device seconds with the calibrated PDA cost model — the methodology the
paper itself uses when it folds "estimated local processing costs" into
the simulation (Section 5.2.3). Wall-clock numbers for the same runs are
produced by ``benchmarks/test_fig5_*``.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..core.local import local_skyline
from ..core.query import SkylineQuery
from ..data import generators
from ..data.spatial import uniform_positions
from ..devices.cost_model import DeviceCostModel, PDA_2006
from ..storage.flat import FlatStorage
from ..storage.hybrid import HybridStorage
from ..storage.relation import Relation
from ..storage.schema import uniform_schema
from .config import DEFAULT, ExperimentScale
from .runner import FigureResult

__all__ = ["device_dataset", "measure_local_time", "figure_5a", "figure_5b"]

#: The device experiments use the domain {0.0, 0.1, ..., 9.9}
#: (100 distinct values -> byte IDs), Section 5.1.
DEVICE_DOMAIN = (0.0, 9.9)
DEVICE_STEP = 0.1

#: Unbounded query distance: Figure 5 varies data size, not the region.
_UNBOUNDED = 1.0e12


def device_dataset(
    cardinality: int,
    dimensions: int,
    distribution: str,
    seed: int,
) -> Relation:
    """One device-resident relation with the Section 5.1 value domain."""
    schema = uniform_schema(
        dimensions, low=DEVICE_DOMAIN[0], high=DEVICE_DOMAIN[1]
    )
    rng = np.random.default_rng(seed)
    unit = generators.generate(distribution, cardinality, dimensions, rng)
    values = generators.scale_to_domain(unit, schema)
    values = generators.clip_to_domain(
        generators.quantize(values, DEVICE_STEP), schema
    )
    xy = uniform_positions(cardinality, schema.spatial_extent, rng)
    return Relation(schema, xy, values)


def measure_local_time(
    relation: Relation,
    storage_kind: str,
    cost_model: DeviceCostModel = PDA_2006,
) -> float:
    """Modelled PDA seconds for one local skyline over ``relation``.

    ``storage_kind`` is ``"hybrid"`` (the paper's HS + ID-based SFS) or
    ``"flat"`` (FS + BNL). Runs the faithful algorithm and prices its
    exact operation counts.
    """
    if storage_kind == "hybrid":
        storage = HybridStorage(relation)
    elif storage_kind == "flat":
        storage = FlatStorage(relation)
    else:
        raise ValueError(f"storage_kind must be hybrid or flat, got {storage_kind!r}")
    center = (
        (relation.schema.spatial_extent[0] + relation.schema.spatial_extent[2]) / 2,
        (relation.schema.spatial_extent[1] + relation.schema.spatial_extent[3]) / 2,
    )
    query = SkylineQuery(origin=0, cnt=0, pos=center, d=_UNBOUNDED)
    result = local_skyline(storage, query, None)
    return cost_model.time_for_counter(result.comparisons, scanned=result.scanned)


def figure_5a(
    scale: ExperimentScale = DEFAULT,
    cost_model: DeviceCostModel = PDA_2006,
) -> FigureResult:
    """Processing time vs. cardinality (2 non-spatial attributes)."""
    result = FigureResult(
        figure="Figure 5(a)",
        title="Local processing time vs. cardinality (n=2), HS vs FS",
        x_label="cardinality",
        x_values=list(scale.local_cardinalities),
        notes=f"modelled PDA seconds; scale={scale.name}",
    )
    series: Dict[str, list] = {
        "HS-IN": [], "FS-IN": [], "HS-AC": [], "FS-AC": [],
    }
    for i, cardinality in enumerate(scale.local_cardinalities):
        for dist, tag in (("independent", "IN"), ("anticorrelated", "AC")):
            relation = device_dataset(
                cardinality, 2, dist, seed=scale.seed + i
            )
            series[f"HS-{tag}"].append(
                measure_local_time(relation, "hybrid", cost_model)
            )
            series[f"FS-{tag}"].append(
                measure_local_time(relation, "flat", cost_model)
            )
    for name in ("HS-IN", "FS-IN", "HS-AC", "FS-AC"):
        result.add_series(name, series[name])
    return result


def figure_5b(
    scale: ExperimentScale = DEFAULT,
    cost_model: DeviceCostModel = PDA_2006,
) -> FigureResult:
    """Processing time vs. dimensionality (fixed cardinality).

    The paper plots the average over IN and AC here "because their costs
    are very close to each other for each dimensionality".
    """
    result = FigureResult(
        figure="Figure 5(b)",
        title=(
            f"Local processing time vs. dimensionality "
            f"(cardinality={scale.local_dim_cardinality}), HS vs FS"
        ),
        x_label="dimensions",
        x_values=list(scale.dimensionalities),
        notes=f"modelled PDA seconds, mean of IN and AC; scale={scale.name}",
    )
    hs, fs = [], []
    for i, dims in enumerate(scale.dimensionalities):
        hs_times, fs_times = [], []
        for dist in ("independent", "anticorrelated"):
            relation = device_dataset(
                scale.local_dim_cardinality, dims, dist,
                seed=scale.seed + 100 + i,
            )
            hs_times.append(
                measure_local_time(relation, "hybrid", cost_model)
            )
            fs_times.append(
                measure_local_time(relation, "flat", cost_model)
            )
        hs.append(sum(hs_times) / len(hs_times))
        fs.append(sum(fs_times) / len(fs_times))
    result.add_series("HS", hs)
    result.add_series("FS", fs)
    return result
