"""Tests for protocol message payloads and wire-size accounting."""

import pytest

from repro.core import FilteringTuple, SkylineQuery
from repro.net.messages import QUERY_BYTES, SEQ_BYTES, tuple_bytes
from repro.protocol import QueryMessage, ResultMessage, TokenMessage
from repro.storage import Relation, SiteTuple


@pytest.fixture
def query():
    return SkylineQuery(origin=1, cnt=0, pos=(0.0, 0.0), d=100.0)


@pytest.fixture
def flt():
    return FilteringTuple(
        site=SiteTuple(x=1.0, y=2.0, values=(3.0, 4.0)), vdr=10.0
    )


@pytest.fixture
def skyline(schema2):
    return Relation.from_rows(
        schema2, [(0, 0, 1, 2), (1, 1, 3, 4), (2, 2, 5, 6)]
    )


class TestQueryMessage:
    def test_size_without_filter(self, query):
        msg = QueryMessage(query=query)
        assert msg.size_bytes(2) == QUERY_BYTES + SEQ_BYTES

    def test_size_with_filter_adds_one_tuple(self, query, flt):
        msg = QueryMessage(query=query, flt=flt)
        assert msg.size_bytes(2) == QUERY_BYTES + SEQ_BYTES + tuple_bytes(2)

    def test_hops_default(self, query):
        assert QueryMessage(query=query).hops == 1


class TestResultMessage:
    def test_size_scales_with_tuples(self, query, skyline, schema2):
        msg = ResultMessage(
            query_key=query.key, sender=2, skyline=skyline, unreduced_size=5
        )
        assert msg.size_bytes(2) == 8 + 3 * tuple_bytes(2)

    def test_empty_result_is_short_message(self, query, schema2):
        """'return a correct, short message' — an empty skyline costs
        only the fixed header."""
        msg = ResultMessage(
            query_key=query.key, sender=2,
            skyline=Relation.empty(schema2), unreduced_size=0,
            skipped="dominated",
        )
        assert msg.size_bytes(2) == 8


class TestTokenMessage:
    def test_size_components(self, query, flt, skyline):
        token = TokenMessage(
            query=query, flt=flt, result=skyline,
            visited=frozenset({0, 1, 2}), path=(0, 1),
        )
        expected = (
            QUERY_BYTES
            + SEQ_BYTES              # originator sequence number
            + 3 * tuple_bytes(2)     # carried result
            + tuple_bytes(2)         # the filter
            + 1                      # 3-bit visited bitmap -> 1 byte
            + 4                      # 2 path entries x 2 bytes
        )
        assert token.size_bytes(2) == expected

    def test_token_grows_with_result(self, query, flt, skyline, schema2):
        small = TokenMessage(
            query=query, flt=flt, result=Relation.empty(schema2),
            visited=frozenset(), path=(),
        )
        big = TokenMessage(
            query=query, flt=flt, result=skyline,
            visited=frozenset(), path=(),
        )
        assert big.size_bytes(2) > small.size_bytes(2)

    def test_contributions_default_empty(self, query, skyline):
        token = TokenMessage(
            query=query, flt=None, result=skyline,
            visited=frozenset(), path=(),
        )
        assert token.contributions == ()
