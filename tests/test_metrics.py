"""Tests for the metrics layer (DRR, response time, message counts)."""

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pytest

from repro.metrics import (
    bf_response_time,
    data_reduction_rate,
    df_response_time,
    drr_of_pairs,
    mean_response_time,
    messages_per_query,
)
from repro.net.world import TrafficStats


@dataclass
class FakeContribution:
    unreduced_size: int
    reduced_size: int
    arrival_time: Optional[float] = None


@dataclass
class FakeRecord:
    issue_time: float = 0.0
    completion_time: Optional[float] = None
    contributions: Dict[int, FakeContribution] = field(default_factory=dict)

    def arrival_times(self):
        return sorted(
            c.arrival_time
            for c in self.contributions.values()
            if c.arrival_time is not None
        )


class TestDrrFormula:
    def test_paper_example(self):
        """Section 3.2's example: one device, |SK|=4, |SK'|=2 -> net
        savings 1 of 4 tuples."""
        assert drr_of_pairs([(4, 2)]) == pytest.approx(1 / 4)

    def test_filter_cost_charged_per_device(self):
        # two devices, no pruning: -1 each
        assert drr_of_pairs([(5, 5), (5, 5)]) == pytest.approx(-2 / 10)

    def test_straightforward_no_filter_cost(self):
        assert drr_of_pairs([(5, 5)], filter_cost=0) == 0.0

    def test_empty_unreduced_excluded(self):
        """Devices with nothing at stake don't contribute the -1."""
        assert drr_of_pairs([(0, 0), (4, 2)]) == pytest.approx(1 / 4)

    def test_none_when_no_tuples(self):
        assert drr_of_pairs([]) is None
        assert drr_of_pairs([(0, 0)]) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            drr_of_pairs([(-1, 0)])
        with pytest.raises(ValueError):
            drr_of_pairs([(2, 3)])

    def test_data_reduction_rate_accepts_dict_and_list(self):
        rec = FakeRecord(contributions={1: FakeContribution(4, 2)})
        assert data_reduction_rate([rec]) == pytest.approx(1 / 4)

        @dataclass
        class ListOutcome:
            contributions: List[FakeContribution]

        out = ListOutcome(contributions=[FakeContribution(4, 2)])
        assert data_reduction_rate([out]) == pytest.approx(1 / 4)

    def test_pooled_over_queries(self):
        a = FakeRecord(contributions={1: FakeContribution(10, 5)})
        b = FakeRecord(contributions={2: FakeContribution(10, 9)})
        # (10-5-1 + 10-9-1) / 20 = 4/20
        assert data_reduction_rate([a, b]) == pytest.approx(0.2)


class TestResponseTimes:
    def _record_with_arrivals(self, times):
        return FakeRecord(
            issue_time=10.0,
            contributions={
                i: FakeContribution(1, 1, arrival_time=t)
                for i, t in enumerate(times)
            },
        )

    def test_bf_80_percent_rule(self):
        # m=6 -> others=5 -> need ceil(4.0)=4 arrivals
        rec = self._record_with_arrivals([11.0, 12.0, 13.0, 14.0, 15.0])
        assert bf_response_time(rec, total_devices=6) == pytest.approx(4.0)

    def test_bf_quorum_not_reached(self):
        rec = self._record_with_arrivals([11.0, 12.0])
        assert bf_response_time(rec, total_devices=6) is None

    def test_bf_full_quorum(self):
        rec = self._record_with_arrivals([11.0, 12.0, 13.0, 14.0, 15.0])
        assert bf_response_time(rec, total_devices=6, quorum=1.0) == 5.0

    def test_bf_single_device_network(self):
        assert bf_response_time(FakeRecord(), total_devices=1) == 0.0

    def test_bf_invalid_quorum(self):
        with pytest.raises(ValueError):
            bf_response_time(FakeRecord(), 5, quorum=0.0)

    def test_df_response(self):
        rec = FakeRecord(issue_time=5.0, completion_time=47.0)
        assert df_response_time(rec) == 42.0
        assert df_response_time(FakeRecord()) is None

    def test_mean_response_time(self):
        assert mean_response_time([1.0, None, 3.0]) == 2.0
        assert mean_response_time([None, None]) is None
        assert mean_response_time([]) is None


class TestMessageCounts:
    def _traffic(self):
        stats = TrafficStats()
        stats.by_kind = {"query": 30, "result": 20, "token": 0, "data": 10,
                         "rreq": 40, "rrep": 4, "rerr": 1}
        return stats

    def test_categories(self):
        counts = messages_per_query(self._traffic(), queries=10)
        assert counts.protocol_total == 60
        assert counts.control_total == 45
        assert counts.protocol_per_query == 6.0
        assert counts.control_per_query == 4.5

    def test_zero_queries(self):
        counts = messages_per_query(self._traffic(), queries=0)
        assert counts.protocol_per_query is None
        assert counts.control_per_query is None

    def test_negative_queries(self):
        with pytest.raises(ValueError):
            messages_per_query(self._traffic(), queries=-1)
