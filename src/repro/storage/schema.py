"""Relation schema and tuple model for the MANET skyline system.

The paper assumes every mobile device :math:`M_i` stores a relation
:math:`R_i` conforming to the shared schema ``<x, y, p_1, ..., p_n>``
(Section 2): ``(x, y)`` is the geographic location of a site and the
``p_j`` are non-spatial attributes over which skylines are computed.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence, Tuple


class Preference(enum.Enum):
    """Direction of preference for a non-spatial attribute.

    The paper assumes "smaller is better" throughout (Section 4.2); MAX
    support is provided so the library generalizes to mixed-direction
    skylines such as "low price, high rating".
    """

    MIN = "min"
    MAX = "max"

    def better(self, a: float, b: float) -> bool:
        """Return True if value ``a`` is strictly better than ``b``."""
        return a < b if self is Preference.MIN else a > b

    def better_or_equal(self, a: float, b: float) -> bool:
        """Return True if value ``a`` is at least as good as ``b``."""
        return a <= b if self is Preference.MIN else a >= b

    def normalize(self, value: float) -> float:
        """Map a raw value into minimization space (MIN is identity)."""
        return value if self is Preference.MIN else -value


@dataclass(frozen=True)
class AttributeSpec:
    """Description of one non-spatial attribute ``p_j``.

    Attributes:
        name: Human-readable attribute name (e.g. ``"price"``).
        low: Global domain lower bound :math:`s_k` (Section 3.2).
        high: Global domain upper bound :math:`b_k` (Section 3.2).
        preference: Direction in which smaller/larger values win.
    """

    name: str
    low: float = 0.0
    high: float = 1000.0
    preference: Preference = Preference.MIN

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if not self.low < self.high:
            raise ValueError(
                f"attribute {self.name!r}: domain low ({self.low}) must be "
                f"strictly below high ({self.high})"
            )

    @property
    def width(self) -> float:
        """Width of the global domain range ``[low, high]``."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """Return True if ``value`` lies within the global domain."""
        return self.low <= value <= self.high


@dataclass(frozen=True)
class RelationSchema:
    """Schema ``<x, y, p_1, ..., p_n>`` shared by every local relation.

    Attributes:
        attributes: Specs of the ``n`` non-spatial attributes, in order.
        spatial_extent: ``(x_min, y_min, x_max, y_max)`` of the global
            spatial domain (the paper uses ``1000 x 1000``).
    """

    attributes: Tuple[AttributeSpec, ...]
    spatial_extent: Tuple[float, float, float, float] = (0.0, 0.0, 1000.0, 1000.0)

    def __post_init__(self) -> None:
        if not self.attributes:
            raise ValueError("a relation schema needs at least one attribute")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate attribute names in schema: {names}")
        x_min, y_min, x_max, y_max = self.spatial_extent
        if not (x_min < x_max and y_min < y_max):
            raise ValueError(f"degenerate spatial extent: {self.spatial_extent}")

    @property
    def dimensions(self) -> int:
        """Number ``n`` of non-spatial attributes."""
        return len(self.attributes)

    @property
    def names(self) -> Tuple[str, ...]:
        """Names of the non-spatial attributes, in schema order."""
        return tuple(a.name for a in self.attributes)

    @property
    def lows(self) -> Tuple[float, ...]:
        """Global lower bounds :math:`s_k` per attribute."""
        return tuple(a.low for a in self.attributes)

    @property
    def highs(self) -> Tuple[float, ...]:
        """Global upper bounds :math:`b_k` per attribute."""
        return tuple(a.high for a in self.attributes)

    @property
    def preferences(self) -> Tuple[Preference, ...]:
        """Preference direction per attribute."""
        return tuple(a.preference for a in self.attributes)

    @property
    def all_min(self) -> bool:
        """True if every attribute is minimized (the paper's assumption)."""
        return all(a.preference is Preference.MIN for a in self.attributes)

    def index_of(self, name: str) -> int:
        """Return the position of attribute ``name`` in the schema."""
        for i, attr in enumerate(self.attributes):
            if attr.name == name:
                return i
        raise KeyError(f"no attribute named {name!r} in schema {self.names}")

    def validate_values(self, values: Sequence[float]) -> None:
        """Raise ValueError unless ``values`` fits this schema's arity."""
        if len(values) != self.dimensions:
            raise ValueError(
                f"expected {self.dimensions} attribute values, got {len(values)}"
            )


def uniform_schema(
    dimensions: int,
    low: float = 0.0,
    high: float = 1000.0,
    spatial_extent: Tuple[float, float, float, float] = (0.0, 0.0, 1000.0, 1000.0),
) -> RelationSchema:
    """Build a schema with ``dimensions`` identical MIN attributes.

    This matches the paper's experimental schemas: non-spatial attributes
    share a domain such as ``[0, 1000]`` (simulation) or ``[0.0, 9.9]``
    (device experiments), all minimized.
    """
    if dimensions < 1:
        raise ValueError("dimensions must be >= 1")
    attrs = tuple(
        AttributeSpec(name=f"p{j + 1}", low=low, high=high) for j in range(dimensions)
    )
    return RelationSchema(attributes=attrs, spatial_extent=spatial_extent)


@dataclass(frozen=True)
class SiteTuple:
    """One site: a location plus its non-spatial attribute values.

    Two sites are duplicates iff their ``(x, y)`` coincide — the paper
    assumes no two distinct sites share a location (Section 4.3), which
    is what makes location-based duplicate elimination correct.
    """

    x: float
    y: float
    values: Tuple[float, ...]
    site_id: int = field(default=-1, compare=False)

    @property
    def position(self) -> Tuple[float, float]:
        """The ``(x, y)`` location of the site."""
        return (self.x, self.y)

    def value(self, index: int) -> float:
        """Value of non-spatial attribute ``p_{index+1}``."""
        return self.values[index]

    def distance_to(self, pos: Tuple[float, float]) -> float:
        """Euclidean distance from this site to ``pos``."""
        return math.hypot(self.x - pos[0], self.y - pos[1])

    def same_site(self, other: "SiteTuple") -> bool:
        """Duplicate check by location only (paper Section 4.3)."""
        return self.x == other.x and self.y == other.y

    def __len__(self) -> int:
        return len(self.values)
