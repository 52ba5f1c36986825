"""Numpy-backed relation container.

A :class:`Relation` is the in-memory representation of one local relation
:math:`R_i` (or of the virtual global relation :math:`R`). It keeps the
spatial coordinates and non-spatial attributes in dense arrays so the
skyline engines can operate vectorised, while still exposing row-level
:class:`~repro.storage.schema.SiteTuple` views for the tuple-at-a-time
algorithms that model device-side processing.

Relations are immutable (the backing arrays are marked read-only), so
every derived view — normalized values, bounds, the MBR, the skyline
rows — is computed at most once per instance and never invalidated.
Callers may hold the returned arrays indefinitely; they are read-only,
so they can be shared freely between relations (see
:meth:`Relation.take`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .schema import Preference, RelationSchema, SiteTuple


class Relation:
    """An immutable relation over schema ``<x, y, p_1, ..., p_n>``.

    Args:
        schema: The shared relation schema.
        xy: ``(N, 2)`` array of site coordinates.
        values: ``(N, n)`` array of non-spatial attribute values.
        site_ids: Optional global site identifiers (defaults to ``0..N-1``).
            Overlapping local relations share site ids for common sites,
            which is what duplicate elimination keys on.
    """

    def __init__(
        self,
        schema: RelationSchema,
        xy: np.ndarray,
        values: np.ndarray,
        site_ids: Optional[np.ndarray] = None,
    ) -> None:
        xy = np.asarray(xy, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"xy must be (N, 2), got {xy.shape}")
        if values.ndim != 2 or values.shape[1] != schema.dimensions:
            raise ValueError(
                f"values must be (N, {schema.dimensions}), got {values.shape}"
            )
        if xy.shape[0] != values.shape[0]:
            raise ValueError(
                f"xy has {xy.shape[0]} rows but values has {values.shape[0]}"
            )
        if site_ids is None:
            site_ids = np.arange(xy.shape[0], dtype=np.int64)
        else:
            site_ids = np.asarray(site_ids, dtype=np.int64)
            if site_ids.shape != (xy.shape[0],):
                raise ValueError(
                    f"site_ids must be ({xy.shape[0]},), got {site_ids.shape}"
                )
        self._schema = schema
        self._xy = xy
        self._values = values
        self._site_ids = site_ids
        for arr in (self._xy, self._values, self._site_ids):
            arr.setflags(write=False)
        self._init_caches()

    def _init_caches(self) -> None:
        self._norm: Optional[np.ndarray] = None
        self._mbr: Optional[Tuple[float, float, float, float]] = None
        self._local_bounds: Optional[
            Tuple[Tuple[float, ...], Tuple[float, ...]]
        ] = None
        self._normalized_worst: Optional[Tuple[float, ...]] = None
        self._normalized_best: Optional[Tuple[float, ...]] = None
        self._skyline_rows: Optional[np.ndarray] = None
        self._last_within: Optional[Tuple] = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _wrap(
        cls,
        schema: RelationSchema,
        xy: np.ndarray,
        values: np.ndarray,
        site_ids: np.ndarray,
    ) -> "Relation":
        """Fast internal constructor for already-validated float64/int64
        arrays (derived views, unions). Skips shape validation and marks
        the arrays read-only so they can be shared between relations."""
        rel = object.__new__(cls)
        rel._schema = schema
        rel._xy = xy
        rel._values = values
        rel._site_ids = site_ids
        for arr in (xy, values, site_ids):
            arr.setflags(write=False)
        rel._init_caches()
        return rel

    @classmethod
    def from_rows(
        cls, schema: RelationSchema, rows: Iterable[Sequence[float]]
    ) -> "Relation":
        """Build a relation from ``(x, y, p_1, .., p_n)`` rows."""
        rows = list(rows)
        if not rows:
            return cls.empty(schema)
        arr = np.asarray(rows, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 2 + schema.dimensions:
            raise ValueError(
                f"rows must have {2 + schema.dimensions} fields, got {arr.shape}"
            )
        return cls(schema, arr[:, :2], arr[:, 2:])

    @classmethod
    def empty(cls, schema: RelationSchema) -> "Relation":
        """An empty relation over ``schema``."""
        return cls._wrap(
            schema,
            np.empty((0, 2), dtype=np.float64),
            np.empty((0, schema.dimensions), dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )

    # -- basic accessors -----------------------------------------------------

    @property
    def schema(self) -> RelationSchema:
        """The relation's schema."""
        return self._schema

    @property
    def xy(self) -> np.ndarray:
        """Read-only ``(N, 2)`` coordinate array."""
        return self._xy

    @property
    def values(self) -> np.ndarray:
        """Read-only ``(N, n)`` non-spatial value array."""
        return self._values

    @property
    def site_ids(self) -> np.ndarray:
        """Read-only ``(N,)`` global site identifiers."""
        return self._site_ids

    @property
    def cardinality(self) -> int:
        """Number of tuples ``|R_i|``."""
        return int(self._xy.shape[0])

    @property
    def dimensions(self) -> int:
        """Number of non-spatial attributes ``n``."""
        return self._schema.dimensions

    def __len__(self) -> int:
        return self.cardinality

    def __iter__(self) -> Iterator[SiteTuple]:
        for i in range(self.cardinality):
            yield self.row(i)

    def row(self, index: int) -> SiteTuple:
        """Materialize row ``index`` as a :class:`SiteTuple`."""
        return SiteTuple(
            x=float(self._xy[index, 0]),
            y=float(self._xy[index, 1]),
            values=tuple(float(v) for v in self._values[index]),
            site_id=int(self._site_ids[index]),
        )

    def rows(self) -> List[SiteTuple]:
        """Materialize every row (small relations / tests only)."""
        return [self.row(i) for i in range(self.cardinality)]

    # -- derived views -------------------------------------------------------

    def normalized_values(self) -> np.ndarray:
        """Values mapped into minimization space (MAX attrs negated).

        The result is computed once (a single vectorised sign-mask
        multiply), cached, and returned as a **read-only** array — for an
        all-MIN schema it is the value array itself. Callers must not
        (and cannot) mutate it in place.
        """
        if self._norm is None:
            if self._schema.all_min:
                self._norm = self._values
            else:
                signs = np.fromiter(
                    (
                        -1.0 if pref is Preference.MAX else 1.0
                        for pref in self._schema.preferences
                    ),
                    dtype=np.float64,
                    count=self._schema.dimensions,
                )
                out = self._values * signs
                out.setflags(write=False)
                self._norm = out
        return self._norm

    def take(self, indices: Sequence[int]) -> "Relation":
        """Sub-relation containing only the given row indices.

        An identity take (``indices == arange(N)``) shares the backing
        arrays — and the derived-view caches — with ``self`` instead of
        copying; relations are immutable, so sharing is safe.
        """
        idx = np.asarray(indices, dtype=np.int64)
        n = self.cardinality
        if idx.shape[0] == n and n and np.array_equal(
            idx, np.arange(n, dtype=np.int64)
        ):
            rel = Relation._wrap(
                self._schema, self._xy, self._values, self._site_ids
            )
            rel._norm = self._norm
            rel._mbr = self._mbr
            rel._local_bounds = self._local_bounds
            rel._normalized_worst = self._normalized_worst
            rel._normalized_best = self._normalized_best
            rel._skyline_rows = self._skyline_rows
            rel._last_within = self._last_within
            return rel
        return Relation._wrap(
            self._schema,
            self._xy.take(idx, axis=0),
            self._values.take(idx, axis=0),
            self._site_ids.take(idx),
        )

    def with_values(self, values: np.ndarray) -> "Relation":
        """The same sites with new ``values``, a float64 array of this
        relation's shape. Coordinates, ids, the cached MBR and the last
        :meth:`within` mask carry over: sites do not move.

        No skyline view carries over. Any row of the new version is a
        sound pruner for its own skyline, so the rows this version's
        skyline held could drop dominated rows before the next
        version's kernel runs, with no record of which rows changed.
        On ``continuous_updates`` that pruning cost more than it saved:
        the kernel's own minimum-sum pivot already leaves about two
        dozen candidates, and a pass with several pruner rows costs
        more than the pivot's row sums (``docs/performance.md``, *A
        subscriber's read pays for what it ships*)."""
        rel = Relation._wrap(self._schema, self._xy, values, self._site_ids)
        rel._mbr = self._mbr
        rel._last_within = self._last_within
        return rel

    def within(self, pos: Tuple[float, float], d: float) -> np.ndarray:
        """Read-only boolean mask of rows within Euclidean distance
        ``d`` of ``pos``.

        This is the spatial constraint of query :math:`Q_{ds}`
        (Section 2, condition (a)). The last mask is kept, and the
        versions :meth:`with_values` makes share it, so a subscription
        that reads each new version of a device's data through one
        disk computes it once.
        """
        x, y = pos
        last = self._last_within
        if last is not None and last[:3] == (x, y, d):
            return last[3]
        dx = self._xy[:, 0] - x
        dy = self._xy[:, 1] - y
        mask = dx * dx + dy * dy <= d * d
        mask.setflags(write=False)
        self._last_within = (x, y, d, mask)
        return mask

    def restrict(self, pos: Tuple[float, float], d: float) -> "Relation":
        """Sub-relation of sites within distance ``d`` of ``pos``."""
        mask = self.within(pos, d)
        if mask.all():
            return self.take(np.arange(self.cardinality, dtype=np.int64))
        return Relation._wrap(
            self._schema,
            self._xy[mask],
            self._values[mask],
            self._site_ids[mask],
        )

    def mbr(self) -> Tuple[float, float, float, float]:
        """Minimum bounding rectangle ``(x_min, y_min, x_max, y_max)``.

        The hybrid storage scheme keeps these four constants per relation
        for fast spatial range checks (Section 4.1). Computed once per
        relation and cached.
        """
        if self.cardinality == 0:
            raise ValueError("MBR of an empty relation is undefined")
        if self._mbr is None:
            self._mbr = (
                float(self._xy[:, 0].min()),
                float(self._xy[:, 1].min()),
                float(self._xy[:, 0].max()),
                float(self._xy[:, 1].max()),
            )
        return self._mbr

    def normalized_best(self) -> Tuple[float, ...]:
        """Per-attribute best value present, in minimization space —
        the column minima of :meth:`normalized_values`. Computed once
        per relation and cached."""
        if self.cardinality == 0:
            raise ValueError("bounds of an empty relation are undefined")
        if self._normalized_best is None:
            # A column at a time, here and in the other bounds:
            # ``min(axis=0)`` over a narrow row-major array reduces
            # across rows an order of magnitude slower.
            norm = self.normalized_values()
            self._normalized_best = tuple(
                float(norm[:, j].min()) for j in range(norm.shape[1])
            )
        return self._normalized_best

    def normalized_worst(self) -> Tuple[float, ...]:
        """Per-attribute worst value present, in minimization space.

        For an all-MIN schema this equals ``local_bounds()[1]`` — the
        local maxima ``h_k`` the under-estimated dominating region uses
        (Section 3.3). MAX attributes contribute their negated minimum.
        Computed once per relation and cached.
        """
        if self.cardinality == 0:
            raise ValueError("bounds of an empty relation are undefined")
        if self._normalized_worst is None:
            norm = self.normalized_values()
            self._normalized_worst = tuple(
                float(norm[:, j].max()) for j in range(norm.shape[1])
            )
        return self._normalized_worst

    def local_bounds(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """Per-attribute local ``(lows, highs)`` — the ``l_j`` / ``h_j``
        of Section 4.2, fetched in O(1) from sorted domain storage.
        Computed once per relation and cached."""
        if self.cardinality == 0:
            raise ValueError("bounds of an empty relation are undefined")
        if self._local_bounds is None:
            cols = [self._values[:, j] for j in range(self.dimensions)]
            self._local_bounds = (
                tuple(float(c.min()) for c in cols),
                tuple(float(c.max()) for c in cols),
            )
        return self._local_bounds

    def skyline_rows(self) -> Optional[np.ndarray]:
        """Sorted row indices of the relation's skyline over all its
        rows (in minimization space), or None until stored.

        Unlike the other views this one is never computed here: the
        skyline kernels live in :mod:`repro.core`, and a query whose
        range covers every row computes it anyway, so that query stores
        it (:meth:`store_skyline_rows`) for the queries that follow.
        """
        return self._skyline_rows

    def store_skyline_rows(self, rows: np.ndarray) -> None:
        """Keep ``rows`` — the skyline of *every* row, as sorted row
        indices — as the :meth:`skyline_rows` view. The array is marked
        read-only and shared, not copied."""
        rows.setflags(write=False)
        self._skyline_rows = rows

    def union(self, other: "Relation") -> "Relation":
        """Bag union of two relations over the same schema."""
        if other.schema is not self._schema and other.schema != self._schema:
            raise ValueError("cannot union relations with different schemas")
        return Relation._wrap(
            self._schema,
            np.vstack([self._xy, other.xy]),
            np.vstack([self._values, other.values]),
            np.concatenate([self._site_ids, other.site_ids]),
        )

    def __repr__(self) -> str:
        return (
            f"Relation(n={self.cardinality}, dims={self.dimensions}, "
            f"schema={self._schema.names})"
        )


def union_all(relations: Sequence[Relation]) -> Relation:
    """Bag union of many relations sharing a schema."""
    if not relations:
        raise ValueError("union_all needs at least one relation")
    schema = relations[0].schema
    for rel in relations[1:]:
        if rel.schema != schema:
            raise ValueError("cannot union relations with different schemas")
    return Relation._wrap(
        schema,
        np.vstack([r.xy for r in relations]),
        np.vstack([r.values for r in relations]),
        np.concatenate([r.site_ids for r in relations]),
    )
