"""Tests for the query model and per-device query log (Section 3.4)."""

import pytest

from repro.core import QueryCounter, QueryLog, SkylineQuery


class TestSkylineQuery:
    def test_fields_and_key(self):
        q = SkylineQuery(origin=3, cnt=7, pos=(10.0, 20.0), d=100.0)
        assert q.key == (3, 7)
        assert q.pos == (10.0, 20.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            SkylineQuery(origin=-1, cnt=0, pos=(0, 0), d=1.0)
        with pytest.raises(ValueError):
            SkylineQuery(origin=0, cnt=256, pos=(0, 0), d=1.0)
        with pytest.raises(ValueError):
            SkylineQuery(origin=0, cnt=-1, pos=(0, 0), d=1.0)
        with pytest.raises(ValueError):
            SkylineQuery(origin=0, cnt=0, pos=(0, 0), d=0.0)

    def test_origin_seq_is_not_identity(self):
        """The originator's sequence number rides the query for route
        learning only: key, equality, hashing and dedup ignore it."""
        q = SkylineQuery(origin=2, cnt=5, pos=(0, 0), d=5.0, origin_seq=1)
        later = SkylineQuery(origin=2, cnt=5, pos=(0, 0), d=5.0, origin_seq=9)
        assert q.key == later.key
        assert q == later and hash(q) == hash(later)
        log = QueryLog()
        assert log.check_and_record(q)
        assert not log.check_and_record(later)

    def test_frozen(self):
        q = SkylineQuery(origin=0, cnt=0, pos=(0, 0), d=5.0)
        with pytest.raises(AttributeError):
            q.d = 10.0


class TestQueryCounter:
    def test_increments(self):
        c = QueryCounter()
        assert [c.next_value() for _ in range(3)] == [0, 1, 2]

    def test_wraps_at_256(self):
        c = QueryCounter(start=255)
        assert c.next_value() == 255
        assert c.next_value() == 0

    def test_reset(self):
        c = QueryCounter()
        c.next_value()
        c.reset()
        assert c.next_value() == 0

    def test_invalid_start(self):
        with pytest.raises(ValueError):
            QueryCounter(start=256)


class TestQueryLog:
    def _q(self, origin, cnt):
        return SkylineQuery(origin=origin, cnt=cnt, pos=(0, 0), d=1.0)

    def test_fresh_query_processed_once(self):
        log = QueryLog()
        q = self._q(1, 0)
        assert log.check_and_record(q)
        assert not log.check_and_record(q)

    def test_latest_query_only_semantics(self):
        """The log keeps only the last cnt per originator: an older cnt
        arriving later is treated as fresh (the paper's assumption that a
        device only cares about its latest query)."""
        log = QueryLog()
        log.record(self._q(1, 5))
        assert log.seen(self._q(1, 5))
        assert not log.seen(self._q(1, 4))
        log.record(self._q(1, 6))
        assert not log.seen(self._q(1, 5))

    def test_per_origin_isolation(self):
        log = QueryLog()
        log.record(self._q(1, 0))
        assert not log.seen(self._q(2, 0))

    def test_wraparound_dedup(self):
        """After 256 queries the counter reuses values; only the
        immediately previous one collides."""
        log = QueryLog()
        counter = QueryCounter()
        first = self._q(1, counter.next_value())
        log.record(first)
        for _ in range(255):
            log.record(self._q(1, counter.next_value()))
        # counter wrapped: next value is 0 again, and the log's entry for
        # origin 1 is 255, so cnt=0 is fresh once more.
        assert log.check_and_record(self._q(1, 0))

    def test_len_and_contains(self):
        log = QueryLog()
        log.record(self._q(4, 1))
        assert len(log) == 1
        assert 4 in log
        assert 5 not in log
