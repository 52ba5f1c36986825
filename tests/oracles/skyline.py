"""Centralized skyline oracles: brute force, BNL, and filter pruning.

Every device runs :func:`~repro.core.skyline.skyline_numpy`; these are
the straightforward versions the tests check it (and the Figure 4
pipeline) against:

* :func:`skyline_bruteforce` — the quadratic definition;
* :func:`skyline_bnl` — Block Nested Loops (Börzsönyi et al., ICDE
  2001), the paper's flat-storage baseline (Section 5.1);
* :func:`prune_with_filters` — drop the rows any of a set of filtering
  tuples dominates or shares a site with.

All take values in minimization space and return sorted row indices;
every copy of a duplicated skyline vector is kept.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.core.dominance import dominance_mask
from repro.core.filtering import FilteringTuple, normalize_values
from repro.storage.relation import Relation

__all__ = [
    "skyline_bruteforce",
    "skyline_bnl",
    "bnl_of_relation",
    "prune_with_filters",
]


def skyline_bruteforce(values: np.ndarray) -> np.ndarray:
    """Indices of the rows no other row dominates, one row at a time."""
    values = np.asarray(values, dtype=np.float64)
    keep = np.ones(values.shape[0], dtype=bool)
    for i in range(values.shape[0]):
        # Compare against every row, i included: a row never dominates
        # itself.
        no_worse = (values <= values[i][None, :]).all(axis=1)
        better = (values < values[i][None, :]).any(axis=1)
        keep[i] = not (no_worse & better).any()
    return np.nonzero(keep)[0].astype(np.int64)


def _dominates(a: np.ndarray, b: np.ndarray) -> bool:
    return bool((a <= b).all() and (a < b).any())


def skyline_bnl(values: np.ndarray) -> np.ndarray:
    """Block Nested Loops over unsorted rows, window kept in memory:
    each row is compared against the window, window rows it dominates
    are evicted, and an undominated row joins the window."""
    values = np.asarray(values, dtype=np.float64)
    window: List[int] = []
    for i in range(values.shape[0]):
        v = values[i]
        if any(_dominates(values[w], v) for w in window):
            continue
        window = [w for w in window if not _dominates(v, values[w])]
        window.append(i)
    return np.asarray(sorted(window), dtype=np.int64)


def bnl_of_relation(relation: Relation) -> Relation:
    """The BNL skyline of ``relation``, honouring its preferences."""
    return relation.take(skyline_bnl(relation.normalized_values()))


def prune_with_filters(
    skyline: Relation, filters: Sequence[FilteringTuple]
) -> Relation:
    """Remove the members any filter dominates or shares a site with."""
    if skyline.cardinality == 0 or not filters:
        return skyline
    values = skyline.normalized_values()
    dominated = np.zeros(skyline.cardinality, dtype=bool)
    for flt in filters:
        f = np.asarray(normalize_values(flt.values, skyline.schema),
                       dtype=np.float64)
        same_site = (skyline.xy[:, 0] == flt.site.x) & (
            skyline.xy[:, 1] == flt.site.y
        )
        dominated |= dominance_mask(f, values) | same_site
    return skyline.take(np.nonzero(~dominated)[0])
