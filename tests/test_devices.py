"""Tests for the device cost model and energy accounting."""

import pytest

from repro.core import ComparisonCounter, LocalSkylineResult
from repro.devices import (
    PDA_2006,
    DeviceCostModel,
    EnergyMeter,
    EnergyModel,
    estimate_comparisons,
)
from repro.storage import Relation, uniform_schema


def result_with(skipped=None, scanned=0, in_range=0, unreduced=0):
    schema = uniform_schema(2)
    return LocalSkylineResult(
        skyline=Relation.empty(schema),
        unreduced_size=unreduced,
        skipped=skipped,
        scanned=scanned,
        in_range=in_range,
    )


class TestCostModel:
    def test_counter_pricing(self):
        model = DeviceCostModel(
            id_compare=1.0, value_compare=2.0, distance_check=3.0,
            tuple_fetch=4.0, indirection=5.0,
        )
        c = ComparisonCounter()
        c.count_id(2)
        c.count_value(3)
        c.count_distance(4)
        assert model.time_for_counter(c, scanned=5, indirections=6) == (
            2 * 1 + 3 * 2 + 4 * 3 + 5 * 4 + 6 * 5
        )

    def test_id_cheaper_than_value(self):
        """The hybrid-storage premise: ID comparisons are cheaper."""
        assert PDA_2006.id_compare < PDA_2006.value_compare

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            DeviceCostModel(id_compare=-1.0)

    def test_mbr_skip_is_constant_time(self):
        res = result_with(skipped="mbr", scanned=0)
        assert PDA_2006.time_for_result(res, dims=2) == PDA_2006.distance_check

    def test_dominated_skip_is_linear_in_dims(self):
        res = result_with(skipped="dominated", unreduced=500)
        t2 = PDA_2006.time_for_result(res, dims=2)
        t5 = PDA_2006.time_for_result(res, dims=5)
        assert t5 > t2
        # and far cheaper than a real scan of 500 in-range tuples
        scan = result_with(scanned=10_000, in_range=10_000, unreduced=500)
        assert t5 < PDA_2006.time_for_result(scan, dims=5)

    def test_estimate_fallback_scales_with_work(self):
        small = result_with(scanned=1000, in_range=1000, unreduced=5)
        large = result_with(scanned=10_000, in_range=10_000, unreduced=50)
        assert PDA_2006.time_for_result(large, dims=2) > PDA_2006.time_for_result(
            small, dims=2
        )

    def test_estimate_comparisons(self):
        assert estimate_comparisons(1000, 10, 2) == 5000.0
        assert estimate_comparisons(1000, 0, 2) == 500.0
        with pytest.raises(ValueError):
            estimate_comparisons(-1, 0, 2)
        with pytest.raises(ValueError):
            estimate_comparisons(1, 0, 0)


class TestEnergy:
    def test_meter_accumulates(self):
        model = EnergyModel(tx_per_byte=1.0, rx_per_byte=2.0, cpu_per_second=3.0)
        meter = EnergyMeter(model=model)
        meter.on_transmit(10)
        meter.on_receive(5)
        meter.on_compute(2.0)
        assert meter.joules == 10 * 1 + 5 * 2 + 2 * 3

    def test_validation(self):
        with pytest.raises(ValueError):
            EnergyModel(tx_per_byte=-1.0)
        meter = EnergyMeter()
        with pytest.raises(ValueError):
            meter.on_transmit(-1)
        with pytest.raises(ValueError):
            meter.on_compute(-0.1)

    def test_transmit_costs_more_than_receive(self):
        model = EnergyModel()
        assert model.tx_per_byte > model.rx_per_byte
