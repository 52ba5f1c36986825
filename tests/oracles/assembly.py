"""The legacy result assembler: a fold of unbounded merges.

:class:`LegacyAssembler` rebuilds a relation per contribution with
:func:`~repro.core.assembly.merge_skylines` and ``block=None`` (one
unbounded ``(C, I, d)`` broadcast per direction). The incremental
:class:`~repro.core.assembly.SkylineAssembler` must return the same rows
in the same order after every contribution.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.assembly import _dedup_within, merge_skylines
from repro.storage.relation import Relation
from repro.storage.schema import RelationSchema

__all__ = ["LegacyAssembler", "legacy_merge", "install_legacy_assembler"]


def legacy_merge(current: Relation, incoming: Relation, block=None) -> Relation:
    """:func:`merge_skylines` with the unbounded broadcast, whatever the
    caller's block."""
    return merge_skylines(current, incoming, block=None)


class LegacyAssembler:
    """Drop-in twin of :class:`~repro.core.assembly.SkylineAssembler`."""

    def __init__(
        self, schema: RelationSchema, initial: Optional[Relation] = None, **_
    ):
        self._schema = schema
        self._merges = 0
        self._current = (
            _dedup_within(initial) if initial is not None else Relation.empty(schema)
        )

    @property
    def merges(self) -> int:
        return self._merges

    def add(self, incoming: Relation) -> None:
        self._current = merge_skylines(self._current, incoming, block=None)
        self._merges += 1

    def add_all(self, results: Iterable[Relation]) -> None:
        for rel in results:
            self.add(rel)

    def result(self) -> Relation:
        return self._current


def install_legacy_assembler(monkeypatch) -> None:
    """Make every BF/DF device assemble and merge the legacy way."""
    monkeypatch.setattr("repro.protocol.device.SkylineAssembler", LegacyAssembler)
    monkeypatch.setattr("repro.protocol.device.merge_skylines", legacy_merge)
