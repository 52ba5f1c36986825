"""Scalar reference paths for mobility models."""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import List, Optional, Tuple

import numpy as np

from repro.net.mobility import (
    DEFAULT_HOLDING_TIME,
    DEFAULT_SPEED_RANGE,
    MobilityModel,
)

__all__ = ["positions_reference", "ReferenceWaypoint", "leg_at"]

Position = Tuple[float, float]


def positions_reference(model: MobilityModel, t: float) -> np.ndarray:
    """All positions at ``t`` from one scalar :meth:`position` call per
    node: the sweep the vectorised ``positions`` of a model must match
    bit for bit."""
    return MobilityModel.positions(model, t)


def leg_at(
    t0: float, t1: float, sx: float, sy: float, ex: float, ey: float, t: float
) -> Position:
    """Position at ``t`` on the leg from ``(sx, sy)`` at ``t0`` to
    ``(ex, ey)`` at ``t1``, clamped to the leg; a zero-length leg (a
    pause, or a degenerate trip) answers its end point."""
    if t1 <= t0:
        return (ex, ey)
    frac = (t - t0) / (t1 - t0)
    frac = min(max(frac, 0.0), 1.0)
    return (sx + frac * (ex - sx), sy + frac * (ey - sy))


class ReferenceWaypoint:
    """Random waypoint answered the plain way: every trip drawn with
    three scalar ``Generator.uniform`` calls, every query a bisection for
    the covering leg (the first whose end time is >= t) and a
    :func:`leg_at` evaluation. Takes the arguments of
    :class:`~repro.net.mobility.RandomWaypoint` (random start positions
    only), whose positions must equal these bit for bit."""

    def __init__(
        self,
        node_count: int,
        extent: Tuple[float, float, float, float] = (0.0, 0.0, 1000.0, 1000.0),
        speed_range: Tuple[float, float] = DEFAULT_SPEED_RANGE,
        holding_time: float = DEFAULT_HOLDING_TIME,
        seed: Optional[int] = None,
    ) -> None:
        self._extent = extent
        self._speed_range = speed_range
        self._holding = holding_time
        seed_seq = np.random.SeedSequence(seed)
        self._rngs = [np.random.default_rng(s) for s in seed_seq.spawn(node_count)]
        x_min, y_min, x_max, y_max = extent
        self._starts = [
            (float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max)))
            for rng in self._rngs
        ]
        #: Per node: legs as (t0, sx, sy, ex, ey), and their end times.
        self._legs: List[List[tuple]] = [[] for _ in range(node_count)]
        self._ends: List[List[float]] = [[] for _ in range(node_count)]

    def position(self, node: int, t: float) -> Position:
        ends = self._ends[node]
        while not ends or ends[-1] < t:
            self._extend(node)
        cur = bisect_left(ends, t)
        t0, sx, sy, ex, ey = self._legs[node][cur]
        return leg_at(t0, ends[cur], sx, sy, ex, ey, t)

    def _extend(self, node: int) -> None:
        rng = self._rngs[node]
        legs = self._legs[node]
        ends = self._ends[node]
        if ends:
            t0 = ends[-1]
            pos = legs[-1][3:]
        else:
            t0 = 0.0
            pos = self._starts[node]
        if self._holding > 0:
            legs.append((t0, pos[0], pos[1], pos[0], pos[1]))
            t0 += self._holding
            ends.append(t0)
        x_min, y_min, x_max, y_max = self._extent
        dest = (float(rng.uniform(x_min, x_max)), float(rng.uniform(y_min, y_max)))
        speed = float(rng.uniform(*self._speed_range))
        distance = math.hypot(dest[0] - pos[0], dest[1] - pos[1])
        duration = distance / speed if speed > 0 else 0.0
        if duration <= 0:
            duration = 1e-9
        legs.append((t0, pos[0], pos[1], dest[0], dest[1]))
        ends.append(t0 + duration)
