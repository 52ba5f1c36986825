"""Percentile selection and run bookkeeping."""

import pytest

import measure


def test_p90_needs_at_least_100_ops():
    walls = [ms / 1e3 for ms in range(1, 100)]  # 99 ops, 1..99 ms
    got = measure.op_latency_ms(walls)
    assert got["op_ms_p50"] == pytest.approx(50.0)
    assert got["op_ms_p90"] == got["op_ms_p50"]


def test_p90_is_the_nearest_rank_from_100_ops():
    walls = [ms / 1e3 for ms in range(100, 0, -1)]  # 100 ops, unsorted
    got = measure.op_latency_ms(walls)
    assert got["op_ms_p90"] == pytest.approx(90.0)
    assert got["op_ms_p50"] == pytest.approx(50.5)


def test_percentile_edges():
    assert measure.percentile([3.0], 0.9) == 3.0
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        measure.percentile([], 0.5)
    with pytest.raises(ValueError):
        measure.percentile([1.0], 0.0)


def test_failed_ops_count_against_attempted():
    assert measure.run_outcome([False, True, False], deterministic=True) == {
        "correct": False, "attempted": 3, "failed": 1,
    }
    assert measure.run_outcome([False] * 4, deterministic=True)["correct"] is True


def test_a_run_that_did_not_repeat_fails_every_op():
    assert measure.run_outcome([False] * 4, deterministic=False) == {
        "correct": False, "attempted": 4, "failed": 4,
    }


def test_host_clock_scales_by_the_median_of_nearby_samples(monkeypatch):
    monkeypatch.setattr(measure, "SCALE_WINDOW", 1)
    samples = iter([3.0, 1.5, 6.0, 4.5])
    monkeypatch.setattr(measure, "loop_ms", lambda loops: next(samples))
    clock = measure.HostClock()
    for _ in range(4):
        clock.sample()
    ref = measure.REFERENCE_SAMPLE_MS
    assert clock.scales() == pytest.approx(
        [2.25 / ref, 3.0 / ref, 4.5 / ref, 5.25 / ref])
    assert clock.scale() == pytest.approx(3.75 / ref)
