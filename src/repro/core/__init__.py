"""Core skyline machinery: dominance, the skyline kernel, filtering, the
Figure 4 local algorithm, assembly."""

from .assembly import (
    SkylineAssembler,
    merge_skylines,
    merge_tree,
)
from .dominance import ComparisonCounter, dominance_mask, dominates_values
from .filtering import (
    Estimation,
    FilteringTuple,
    estimation_bounds,
    normalize_values,
    promote_filter,
    select_filter,
    select_filter_set,
    union_dominating_volume,
    vdr,
    vdr_matrix,
)
from .local import (
    LocalResultCache,
    LocalSkylineResult,
    local_skyline,
    local_skyline_vectorized,
)
from .query import COUNTER_MODULUS, QueryCounter, QueryLog, SkylineQuery
from .skyline import skyline_numpy, skyline_of_relation

__all__ = [
    "COUNTER_MODULUS",
    "ComparisonCounter",
    "Estimation",
    "FilteringTuple",
    "LocalResultCache",
    "LocalSkylineResult",
    "QueryCounter",
    "QueryLog",
    "SkylineAssembler",
    "SkylineQuery",
    "dominance_mask",
    "dominates_values",
    "estimation_bounds",
    "local_skyline",
    "local_skyline_vectorized",
    "merge_skylines",
    "merge_tree",
    "normalize_values",
    "promote_filter",
    "select_filter",
    "select_filter_set",
    "skyline_numpy",
    "skyline_of_relation",
    "union_dominating_volume",
    "vdr",
    "vdr_matrix",
]
