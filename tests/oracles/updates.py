"""Eager reference for a device's data updates.

A :class:`~repro.protocol.device.SkylineDevice` defers each update
until its relation is next read. :class:`EagerStore` is how updates
used to reach a device: every update is folded into the stored relation
the moment it is applied. A read of the deferring device must equal the
store's relation, and both must count the same ``data_epoch``.
"""

from __future__ import annotations

from repro.storage.relation import Relation

__all__ = ["EagerStore"]


class EagerStore:
    """A relation that applies each update on arrival."""

    def __init__(self, relation: Relation) -> None:
        self.relation = relation
        self.data_epoch = 0

    def apply_update(self, update) -> None:
        self.relation = update(self.relation)
        self.data_epoch += 1
