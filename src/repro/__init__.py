"""Reproduction of *Skyline Queries Against Mobile Lightweight Devices in
MANETs* (Huang, Jensen, Lu, Ooi — ICDE 2006).

The package is organised as the paper is:

* :mod:`repro.core` — skyline algorithms, dominance, filtering tuples
  (VDR), the Figure 4 local algorithm, and originator-side assembly.
* :mod:`repro.storage` — the hybrid storage model of Section 4 plus the
  flat / domain / ring alternatives it is compared against.
* :mod:`repro.data` — synthetic data generators, grid partitioning, and
  query workloads (Tables 6/7).
* :mod:`repro.net` — the MANET substrate: discrete-event engine, random
  waypoint mobility, unit-disk radio, and AODV routing.
* :mod:`repro.protocol` — the distributed query strategies: breadth-first
  flooding, depth-first token passing, and the static-grid pre-tests.
* :mod:`repro.devices` — the calibrated PDA cost model and energy meter.
* :mod:`repro.faults` — deterministic fault injection: device churn,
  link blackouts, and bursty loss windows.
* :mod:`repro.metrics` — DRR (Formula 1), response time, message counts.
* :mod:`repro.experiments` — one module per figure of Section 5.

Quick start::

    from repro import make_global_dataset, run_static_grid
    from repro import data_reduction_rate

    dataset = make_global_dataset(
        cardinality=100_000, dimensions=2, devices=25,
        distribution="independent", seed=7, value_step=1.0,
    )
    outcomes = run_static_grid(dataset)
    print(data_reduction_rate(outcomes))
"""

from .core import (
    Estimation,
    FilteringTuple,
    LocalSkylineResult,
    QueryCounter,
    QueryLog,
    SkylineAssembler,
    SkylineQuery,
    dominates_values,
    local_skyline,
    local_skyline_vectorized,
    merge_skylines,
    select_filter,
    skyline_numpy,
    skyline_of_relation,
    vdr,
)
from .data import (
    GlobalDataset,
    GridPartition,
    QueryRequest,
    generate_workload,
    make_global_dataset,
)
from .devices import PDA_2006, DeviceCostModel, EnergyMeter, EnergyModel
from .faults import FaultEvent, FaultInjector, FaultSchedule
from .metrics import (
    bf_response_time,
    collect_metrics,
    data_reduction_rate,
    df_response_time,
    messages_per_query,
)
from .net import (
    AodvRouter,
    RadioConfig,
    RandomWaypoint,
    Simulator,
    StaticPlacement,
    World,
)
from .protocol import (
    BFDevice,
    DFDevice,
    ProtocolConfig,
    QueryRecord,
    SimulationConfig,
    SimulationResult,
    run_manet_simulation,
    run_static_grid,
    run_static_query,
)
from .storage import (
    AttributeSpec,
    DomainStorage,
    FlatStorage,
    HybridStorage,
    Preference,
    Relation,
    RelationSchema,
    RingStorage,
    SiteTuple,
    uniform_schema,
    union_all,
)

__version__ = "1.0.0"

__all__ = [
    "AodvRouter",
    "AttributeSpec",
    "BFDevice",
    "DFDevice",
    "DeviceCostModel",
    "DomainStorage",
    "EnergyMeter",
    "EnergyModel",
    "Estimation",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "FilteringTuple",
    "FlatStorage",
    "GlobalDataset",
    "GridPartition",
    "HybridStorage",
    "LocalSkylineResult",
    "PDA_2006",
    "Preference",
    "ProtocolConfig",
    "QueryCounter",
    "QueryLog",
    "QueryRecord",
    "QueryRequest",
    "RadioConfig",
    "RandomWaypoint",
    "Relation",
    "RelationSchema",
    "RingStorage",
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "SiteTuple",
    "SkylineAssembler",
    "SkylineQuery",
    "StaticPlacement",
    "World",
    "__version__",
    "bf_response_time",
    "collect_metrics",
    "data_reduction_rate",
    "df_response_time",
    "dominates_values",
    "generate_workload",
    "local_skyline",
    "local_skyline_vectorized",
    "make_global_dataset",
    "merge_skylines",
    "messages_per_query",
    "run_manet_simulation",
    "run_static_grid",
    "run_static_query",
    "select_filter",
    "skyline_numpy",
    "skyline_of_relation",
    "uniform_schema",
    "union_all",
    "vdr",
]
