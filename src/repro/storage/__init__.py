"""Storage substrate: schemas, relations, and device storage models."""

from .base import AccessStats, StorageModel
from .domain_store import DomainStorage
from .flat import FlatStorage
from .hybrid import HybridStorage, id_bytes_for
from .relation import Relation, union_all
from .ring import RingStorage
from .schema import (
    AttributeSpec,
    Preference,
    RelationSchema,
    SiteTuple,
    uniform_schema,
)

__all__ = [
    "AccessStats",
    "AttributeSpec",
    "DomainStorage",
    "FlatStorage",
    "HybridStorage",
    "Preference",
    "Relation",
    "RelationSchema",
    "RingStorage",
    "SiteTuple",
    "StorageModel",
    "id_bytes_for",
    "uniform_schema",
    "union_all",
]
