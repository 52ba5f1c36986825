"""Core skyline machinery: dominance, algorithms, filtering, assembly."""

from .assembly import (
    SkylineAssembler,
    merge_skylines,
    merge_tree,
)
from .dominance import (
    ComparisonCounter,
    any_dominator,
    dominance_mask,
    dominates,
    dominates_or_equal,
    dominates_values,
    incomparable,
)
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
from .multifilter import (
    MultiFilterResult,
    local_skyline_multifilter,
    prune_with_filters,
)
from .query import COUNTER_MODULUS, QueryCounter, QueryLog, SkylineQuery
from .skyline import (
    skyline_bnl,
    skyline_bruteforce,
    skyline_divide_conquer,
    skyline_numpy,
    skyline_of_relation,
    skyline_sfs,
)

__all__ = [
    "COUNTER_MODULUS",
    "ComparisonCounter",
    "Estimation",
    "FilteringTuple",
    "LocalResultCache",
    "LocalSkylineResult",
    "MultiFilterResult",
    "QueryCounter",
    "QueryLog",
    "SkylineAssembler",
    "SkylineQuery",
    "any_dominator",
    "dominance_mask",
    "dominates",
    "dominates_or_equal",
    "dominates_values",
    "estimation_bounds",
    "incomparable",
    "local_skyline",
    "local_skyline_multifilter",
    "local_skyline_vectorized",
    "merge_skylines",
    "merge_tree",
    "normalize_values",
    "promote_filter",
    "prune_with_filters",
    "select_filter",
    "select_filter_set",
    "skyline_bnl",
    "skyline_bruteforce",
    "skyline_divide_conquer",
    "skyline_numpy",
    "skyline_of_relation",
    "skyline_sfs",
    "union_dominating_volume",
    "vdr",
    "vdr_matrix",
]
