"""Synthetic data substrate: generators, spatial layout, partitioning."""

from .generators import (
    DISTRIBUTIONS,
    anticorrelated,
    correlated,
    generate,
    independent,
    quantize,
    scale_to_domain,
)
from .partition import GlobalDataset, GridPartition, make_global_dataset
from .spatial import (
    rect_overlaps_circle,
    uniform_positions,
)
from .workload import QueryRequest, generate_workload, single_query_workload

__all__ = [
    "DISTRIBUTIONS",
    "GlobalDataset",
    "GridPartition",
    "QueryRequest",
    "anticorrelated",
    "correlated",
    "generate",
    "generate_workload",
    "independent",
    "make_global_dataset",
    "quantize",
    "rect_overlaps_circle",
    "scale_to_domain",
    "single_query_workload",
    "uniform_positions",
]
