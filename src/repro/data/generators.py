"""Synthetic attribute generators (Börzsönyi et al., ICDE 2001 families).

The paper evaluates on synthetic datasets "with both independent and
anti-correlated distributed attributes" (Section 5.1); a correlated
generator is included for completeness. All generators produce values in
``[0, 1]^n``; use :func:`scale_to_domain` to map them onto a schema's
attribute domains (e.g. integers in ``[1, 1000]`` for the simulation, the
``{0.0, 0.1, ..., 9.9}`` grid for the device experiments).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..storage.schema import RelationSchema

__all__ = [
    "independent",
    "correlated",
    "anticorrelated",
    "generate",
    "scale_to_domain",
    "quantize",
    "clip_to_domain",
    "DISTRIBUTIONS",
]

DISTRIBUTIONS = ("independent", "correlated", "anticorrelated")


def independent(
    n: int, dimensions: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """``n`` points with i.i.d. uniform attributes in ``[0, 1]``."""
    rng = _rng(rng)
    _check(n, dimensions)
    return rng.random((n, dimensions))


def correlated(
    n: int,
    dimensions: int,
    rng: Optional[np.random.Generator] = None,
    spread: float = 0.05,
) -> np.ndarray:
    """``n`` correlated points: all attributes cluster around a shared
    per-point level drawn from a normal peaked at 0.5.

    Points good in one dimension tend to be good in all — skylines are
    tiny.
    """
    rng = _rng(rng)
    _check(n, dimensions)
    level = _truncated_normal(rng, n, loc=0.5, scale=0.25)
    points = rng.normal(0.0, spread, size=(n, dimensions))
    for j in range(dimensions):
        points[:, j] += level
    return _reflect_into_unit(points)


def anticorrelated(
    n: int,
    dimensions: int,
    rng: Optional[np.random.Generator] = None,
    transfer_rounds: int = 8,
    level_scale: float = 0.05,
) -> np.ndarray:
    """``n`` anti-correlated points via the classic pairwise-transfer scheme.

    Each point starts with every attribute equal to a per-point level
    ``v ~ N(0.5, level_scale)`` — a *tight* distribution, so the attribute
    sum is concentrated around the anti-diagonal plane — then value mass
    is repeatedly shifted between random attribute pairs while preserving
    the sum. Points good in one dimension are bad in another (pairwise
    correlation ~ -0.95 in 2-D, ~ -1/(d-1) in higher dimensions) —
    skylines are large, the hard case for filtering (Section 5.2.2).
    """
    rng = _rng(rng)
    _check(n, dimensions)
    level = _truncated_normal(rng, n, loc=0.5, scale=level_scale)
    points = np.repeat(level[:, None], dimensions, axis=1)
    if dimensions == 1:
        return points
    for _ in range(transfer_rounds * (dimensions - 1)):
        i = rng.integers(0, dimensions, size=n)
        j = rng.integers(0, dimensions, size=n)
        same = i == j
        j = np.where(same, (j + 1) % dimensions, j)
        give = points[np.arange(n), i]
        room = 1.0 - points[np.arange(n), j]
        delta = rng.random(n) * np.minimum(give, room)
        points[np.arange(n), i] -= delta
        points[np.arange(n), j] += delta
    return np.clip(points, 0.0, 1.0)


def generate(
    distribution: str,
    n: int,
    dimensions: int,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Dispatch on distribution name (``independent`` / ``correlated`` /
    ``anticorrelated``; ``in`` / ``co`` / ``ac`` shorthands accepted)."""
    aliases = {
        "in": "independent",
        "ind": "independent",
        "co": "correlated",
        "corr": "correlated",
        "ac": "anticorrelated",
        "anti": "anticorrelated",
        "anti-correlated": "anticorrelated",
    }
    name = aliases.get(distribution.lower(), distribution.lower())
    if name == "independent":
        return independent(n, dimensions, rng)
    if name == "correlated":
        return correlated(n, dimensions, rng)
    if name == "anticorrelated":
        return anticorrelated(n, dimensions, rng)
    raise ValueError(
        f"unknown distribution {distribution!r}; choose from {DISTRIBUTIONS}"
    )


def scale_to_domain(unit_values: np.ndarray, schema: RelationSchema) -> np.ndarray:
    """Map ``[0, 1]^n`` values onto the schema's per-attribute domains,
    one column at a time (a broadcast ``(n,)`` row against ``(N, n)``
    values runs a length-``n`` inner loop ``N`` times)."""
    unit_values = np.asarray(unit_values, dtype=np.float64)
    if unit_values.ndim != 2 or unit_values.shape[1] != schema.dimensions:
        raise ValueError(
            f"expected (N, {schema.dimensions}) unit values, got {unit_values.shape}"
        )
    out = np.empty_like(unit_values, order="C")
    for j, (low, high) in enumerate(zip(schema.lows, schema.highs)):
        col = out[:, j]
        np.multiply(unit_values[:, j], high - low, out=col)
        col += low
    return out


def quantize(values: np.ndarray, step: float) -> np.ndarray:
    """Snap values to a grid of spacing ``step``.

    The device experiments use the domain ``{0.0, 0.1, ..., 9.9}``
    (Section 5.1, 100 distinct values → byte IDs); the simulation uses
    integers in ``[1, 1000]`` (``step=1``).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    out = np.divide(np.asarray(values, dtype=np.float64), step)
    np.rint(out, out=out)
    out *= step
    return out


def clip_to_domain(values: np.ndarray, schema: RelationSchema) -> np.ndarray:
    """Clip ``(N, n)`` values into the schema's attribute domains, in
    place and one column at a time. Returns ``values``."""
    for j, (low, high) in enumerate(zip(schema.lows, schema.highs)):
        # The two ufuncs ``np.clip`` runs, without its wrapper's checks.
        col = values[:, j]
        np.minimum(np.maximum(col, low, out=col), high, out=col)
    return values


def _rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng()


def _check(n: int, dimensions: int) -> None:
    if n < 0:
        raise ValueError("n must be >= 0")
    if dimensions < 1:
        raise ValueError("dimensions must be >= 1")


def _truncated_normal(
    rng: np.random.Generator, n: int, loc: float, scale: float
) -> np.ndarray:
    """Normal samples redrawn until they land in ``[0, 1]``."""
    out = rng.normal(loc, scale, size=n)
    for _ in range(64):
        bad = (out < 0.0) | (out > 1.0)
        if not bad.any():
            break
        out[bad] = rng.normal(loc, scale, size=int(bad.sum()))
    return np.clip(out, 0.0, 1.0)


def _reflect_into_unit(points: np.ndarray) -> np.ndarray:
    """Reflect out-of-range values back into ``[0, 1]`` (keeps density
    smooth near the borders, unlike clipping)."""
    points = np.abs(points)
    points = np.where(points > 1.0, 2.0 - points, points)
    return np.clip(points, 0.0, 1.0)
