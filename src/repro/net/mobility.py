"""Mobility models for the MANET simulation.

"All devices move within the spatial domain according to the random
waypoint mobility model. In that model, every device moves towards its
own destination with its own speed, and when it reaches that destination
it will stop there for a period of time (holding time) and then move to
another destination with a new random speed" (Section 5.2.1, citing
Broch et al., MOBICOM 1998). Paper settings: speed U[2, 10] m/s, holding
time 120 s, domain 1000 x 1000 (Table 7).
"""

from __future__ import annotations

import abc
import math
from array import array
from bisect import bisect_left
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "MobilityModel",
    "StaticPlacement",
    "RandomWaypoint",
    "DEFAULT_SPEED_RANGE",
    "DEFAULT_HOLDING_TIME",
]

DEFAULT_SPEED_RANGE = (2.0, 10.0)
DEFAULT_HOLDING_TIME = 120.0

Position = Tuple[float, float]


class MobilityModel(abc.ABC):
    """Answers "where is node i at time t" for every node."""

    #: Whether positions are the same at every time. A property of the
    #: model type: the neighbor index keys a static model's positions and
    #: adjacency on the connectivity epoch alone, never on time.
    static = False

    @property
    @abc.abstractmethod
    def node_count(self) -> int:
        """Number of nodes the model tracks."""

    @property
    @abc.abstractmethod
    def max_speed(self) -> float:
        """An upper bound on any node's speed, in m/s.

        The neighbor index relies on it: two nodes close at most
        ``2 * max_speed`` m/s, so a candidate list built with a skin
        of ``s`` metres stays complete for ``s / (2 * max_speed)``
        seconds. A model that breaks the bound makes neighbor answers
        wrong.
        """

    @abc.abstractmethod
    def position(self, node: int, t: float) -> Position:
        """Position of ``node`` at simulation time ``t`` (t >= 0)."""

    def positions(self, t: float) -> np.ndarray:
        """``(m, 2)`` array of all node positions at time ``t``."""
        return np.array(
            [self.position(i, t) for i in range(self.node_count)], dtype=np.float64
        )

    def positions_of(self, nodes: Sequence[int], t: float) -> List[Position]:
        """Positions of ``nodes`` at time ``t``, each exactly as
        :meth:`position` gives it, from one call: a few nodes without
        the fixed cost of an array sweep."""
        return [self.position(node, t) for node in nodes]


class StaticPlacement(MobilityModel):
    """Nodes that never move — the static pre-test setting (Section 5.2.2-I)."""

    static = True

    def __init__(self, positions: Sequence[Position]) -> None:
        if not positions:
            raise ValueError("need at least one node position")
        self._positions = [
            (float(x), float(y)) for x, y in positions
        ]
        self._array = np.array(self._positions, dtype=np.float64)

    @property
    def node_count(self) -> int:
        return len(self._positions)

    @property
    def max_speed(self) -> float:
        return 0.0

    def position(self, node: int, t: float) -> Position:
        if t < 0:
            raise ValueError("time must be >= 0")
        return self._positions[node]

    def positions(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("time must be >= 0")
        return self._array.copy()


#: Uniform draws fetched per refill of a node's draw block: three per
#: trip (destination x, destination y, speed), so one block covers 16
#: trips.
_DRAW_BLOCK = 48

#: A current-leg entry no query time falls inside (``prev_end < t``
#: fails for every t), forcing the first lookup to locate.
_NO_LEG = (math.inf, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class RandomWaypoint(MobilityModel):
    """Random waypoint mobility, lazily materialised and seed-deterministic.

    Each node's trajectory is a sequence of (travel, pause) legs generated
    on demand: positions can be queried at any non-decreasing or random
    time; legs are extended as far as needed and cached.

    Args:
        node_count: Number of nodes.
        extent: ``(x_min, y_min, x_max, y_max)`` movement area.
        speed_range: Uniform speed range in m/s (paper: 2-10).
        holding_time: Pause at each waypoint in seconds (paper: 120).
        seed: RNG seed; each node derives an independent stream, so
            adding nodes does not perturb existing trajectories.
        start_positions: Optional fixed initial positions (defaults to
            uniform random within ``extent``).
    """

    def __init__(
        self,
        node_count: int,
        extent: Tuple[float, float, float, float] = (0.0, 0.0, 1000.0, 1000.0),
        speed_range: Tuple[float, float] = DEFAULT_SPEED_RANGE,
        holding_time: float = DEFAULT_HOLDING_TIME,
        seed: Optional[int] = None,
        start_positions: Optional[Sequence[Position]] = None,
    ) -> None:
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        lo, hi = speed_range
        if not 0 < lo <= hi:
            raise ValueError(f"bad speed range {speed_range}")
        if holding_time < 0:
            raise ValueError("holding_time must be >= 0")
        x_min, y_min, x_max, y_max = extent
        if not (x_min < x_max and y_min < y_max):
            raise ValueError(f"degenerate extent {extent}")
        self._count = node_count
        self._max_speed = float(hi)
        self._holding = holding_time
        seed_seq = np.random.SeedSequence(seed)
        self._rngs = [
            np.random.default_rng(s) for s in seed_seq.spawn(node_count)
        ]
        #: Each node's legs, flat: five float64 values per leg (start
        #: time, start x/y, end x/y). A long run appends thousands of legs
        #: per node; one object per leg made this history the largest
        #: memory growth of a mobile simulation.
        self._legs = [array("d") for _ in range(node_count)]
        #: Parallel array of leg end times per node (for bisection).
        self._ends = [array("d") for _ in range(node_count)]
        #: Each node's last located leg as one tuple of Python floats:
        #: (previous leg's end, start time, end time, start x/y, end x/y).
        #: A scalar query inside it skips the locate; most unicast range
        #: checks ask about a node whose leg has not changed since the
        #: last one.
        self._current: List[tuple] = [_NO_LEG] * node_count
        #: Per-node blocks of standard uniform draws and the next unread
        #: index into each; ``_extend`` scales them to its ranges.
        self._draws: List[List[float]] = [[] for _ in range(node_count)]
        self._drawn: List[int] = [0] * node_count
        #: Struct-of-arrays mirror of every node's *current* leg
        #: (`t_start`, `t_end`, start/end coordinates, and the previous
        #: leg's end time for the covering test). ``advance`` refreshes
        #: stale rows; ``positions`` interpolates all nodes in one
        #: vectorised pass over these arrays. Sentinels (`t_end = -1`,
        #: `prev_end = -inf`) mark never-located rows as stale.
        self._soa_t0 = np.zeros(node_count, dtype=np.float64)
        self._soa_t1 = np.full(node_count, -1.0, dtype=np.float64)
        self._soa_sx = np.zeros(node_count, dtype=np.float64)
        self._soa_sy = np.zeros(node_count, dtype=np.float64)
        self._soa_ex = np.zeros(node_count, dtype=np.float64)
        self._soa_ey = np.zeros(node_count, dtype=np.float64)
        self._soa_prev = np.full(node_count, -np.inf, dtype=np.float64)
        if start_positions is not None:
            if len(start_positions) != node_count:
                raise ValueError(
                    f"need {node_count} start positions, got {len(start_positions)}"
                )
            starts = [(float(x), float(y)) for x, y in start_positions]
        else:
            starts = [
                (
                    float(self._rngs[i].uniform(x_min, x_max)),
                    float(self._rngs[i].uniform(y_min, y_max)),
                )
                for i in range(node_count)
            ]
        self._starts = starts
        #: ``(lo, hi - lo)`` in float64 for destination x, destination y
        #: and speed, as ``Generator.uniform`` converts its bounds.
        self._ranges = tuple(
            (float(lo), float(hi) - float(lo))
            for lo, hi in ((x_min, x_max), (y_min, y_max), speed_range)
        )

    @property
    def node_count(self) -> int:
        return self._count

    @property
    def max_speed(self) -> float:
        """The top of the speed band: no trip is faster."""
        return self._max_speed

    def position(self, node: int, t: float) -> Position:
        """Position of ``node`` at ``t``: clamped linear interpolation
        along the covering leg; a zero-length leg (a pause, or a
        degenerate trip) answers its end point."""
        if t < 0:
            raise ValueError("time must be >= 0")
        return self._at(node, t)

    def positions_of(self, nodes: Sequence[int], t: float) -> List[Position]:
        """:meth:`position` of each of ``nodes`` at ``t``, from one call."""
        if t < 0:
            raise ValueError("time must be >= 0")
        at = self._at
        return [at(node, t) for node in nodes]

    def _at(self, node: int, t: float) -> Position:
        """:meth:`position` for a ``t`` already checked. Private, so the
        layer tracer charges one call per :meth:`positions_of`."""
        prev, t0, t1, sx, sy, ex, ey = self._current[node]
        if not prev < t <= t1:
            prev, t0, t1, sx, sy, ex, ey = self._locate(node, t)
        if t1 <= t0:
            return (ex, ey)
        frac = (t - t0) / (t1 - t0)
        frac = min(max(frac, 0.0), 1.0)
        return (sx + frac * (ex - sx), sy + frac * (ey - sy))

    def _locate(self, node: int, t: float) -> tuple:
        """The covering leg (first with end time >= ``t``) as a current-leg
        tuple, extending the trajectory as needed; it becomes the node's
        current leg."""
        ends = self._ends[node]
        while not ends or ends[-1] < t:
            self._extend(node)
        cur = bisect_left(ends, t)
        t0, sx, sy, ex, ey = self._legs[node][5 * cur : 5 * cur + 5]
        prev = ends[cur - 1] if cur else -math.inf
        leg = self._current[node] = (prev, t0, ends[cur], sx, sy, ex, ey)
        return leg

    def advance(self, t: float) -> None:
        """Refresh the SoA current-leg arrays so every row covers ``t``.

        One vectorised staleness test over all nodes; only rows whose
        leg no longer covers ``t`` (typically the few nodes that crossed
        a waypoint since the last sweep) pay the scalar locate-and-copy
        fix-up.
        """
        if t < 0:
            raise ValueError("time must be >= 0")
        stale = (self._soa_t1 < t) | (self._soa_prev >= t)
        if not stale.any():
            return
        for node in np.nonzero(stale)[0]:
            node = int(node)
            (
                self._soa_prev[node], self._soa_t0[node], self._soa_t1[node],
                self._soa_sx[node], self._soa_sy[node],
                self._soa_ex[node], self._soa_ey[node],
            ) = self._locate(node, t)

    def positions(self, t: float) -> np.ndarray:
        """All node positions at ``t`` in one vectorised interpolation.

        Bit-identical to the scalar :meth:`position` path: both evaluate
        ``start + clamp((t - t0) / (t1 - t0)) * (end - start)`` in IEEE
        float64 (degenerate zero-length legs answer their endpoint).
        """
        self.advance(t)
        span = self._soa_t1 - self._soa_t0
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (t - self._soa_t0) / span
        frac = np.minimum(np.maximum(frac, 0.0), 1.0)
        x = self._soa_sx + frac * (self._soa_ex - self._soa_sx)
        y = self._soa_sy + frac * (self._soa_ey - self._soa_sy)
        degenerate = span <= 0.0
        if degenerate.any():
            x = np.where(degenerate, self._soa_ex, x)
            y = np.where(degenerate, self._soa_ey, y)
        return np.stack((x, y), axis=1)

    def _extend(self, node: int) -> None:
        """Append one (pause, travel) pair to the node's trajectory."""
        legs = self._legs[node]
        ends = self._ends[node]
        if ends:
            t0 = ends[-1]
            pos = (legs[-2], legs[-1])
        else:
            t0 = 0.0
            pos = self._starts[node]
        # Pause at the current waypoint (initial pause models devices
        # starting at rest, matching the classic RWP formulation).
        if self._holding > 0:
            legs.extend((t0, pos[0], pos[1], pos[0], pos[1]))
            t0 += self._holding
            ends.append(t0)
        # ``lo + (hi - lo) * u`` over ``Generator.random`` draws is the
        # exact float64 expression ``Generator.uniform(lo, hi)`` evaluates
        # on the same stream, so drawing a block ahead yields the values
        # the scalar calls would. Reading ahead is safe only because after
        # construction ``_extend`` is the sole user of each node's private
        # generator.
        draws = self._draws[node]
        i = self._drawn[node]
        if i == len(draws):
            draws = self._draws[node] = self._rngs[node].random(_DRAW_BLOCK).tolist()
            i = 0
        self._drawn[node] = i + 3
        (x_min, x_span), (y_min, y_span), (v_min, v_span) = self._ranges
        dest = (x_min + x_span * draws[i], y_min + y_span * draws[i + 1])
        speed = v_min + v_span * draws[i + 2]
        distance = math.hypot(dest[0] - pos[0], dest[1] - pos[1])
        duration = distance / speed if speed > 0 else 0.0
        if duration <= 0:
            duration = 1e-9  # degenerate zero-length trip
        legs.extend((t0, pos[0], pos[1], dest[0], dest[1]))
        ends.append(t0 + duration)
