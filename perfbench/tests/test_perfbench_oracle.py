"""Oracle-failure counting, passivity of the traced run, and the
benchmark definition agreeing with what the runner reports."""

import itertools
import json

import pytest

import numpy as np

import layers
import measure
import run
import workloads
from repro.core import SkylineAssembler
from repro.protocol import ProtocolConfig
from repro.storage import Relation


def small_bf():
    return workloads.ManetWorkload(
        devices=4, cardinality=400, distance=500.0,
        protocol=ProtocolConfig(), warmup=1, rate=1.0, side=400.0,
    )


def test_forged_or_undrained_ops_count_as_failed():
    wl = small_bf()
    state = wl.setup(5)
    ops, _ = run.run_phase(wl, state, 5, count=3)
    assert wl.check(state, ops) == [False, False, False]
    schema = state.dataset.schema
    record = ops[1].outcome
    # A tuple no device holds, dominating every real one.
    stray = Relation(schema, np.array([record.query.pos]), np.zeros((1, 2)),
                     np.array([10**9]))
    record.assembler = SkylineAssembler(schema, stray)
    ops[2].drained = False
    # Sound but incomplete: the true skyline with one tuple dropped.
    kept = ops[0].outcome.result
    ops[0].outcome.assembler = SkylineAssembler(
        schema, kept.take(range(1, kept.cardinality)))
    flags = wl.check(state, ops)
    assert flags == [True, True, True]
    assert measure.run_outcome(flags, deterministic=True) == {
        "correct": False, "attempted": 3, "failed": 3,
    }


def test_continuous_op_differing_from_its_replay_fails():
    wl = workloads.ContinuousWorkload(
        devices=9, cardinality=900, epochs=3, updates=4, distance=250.0,
        subscriptions=2,
    )
    state = wl.setup(2)
    ops, _ = run.run_phase(wl, state, 2, count=2)
    assert wl.check(state, ops) == [False, False]
    epoch_rows, traffic = ops[0].outcome
    ops[0].outcome = (epoch_rows[:-1] + (frozenset(),), traffic)
    assert wl.check(state, ops) == [True, False]


def test_traced_phase_is_passive_and_attributed():
    wl = small_bf()
    plain_state = wl.setup(3)
    plain, _ = run.run_phase(wl, plain_state, 3, count=3)
    tracer = layers.Tracer().install()
    try:
        state = wl.setup(3)
        traced, _ = run.run_phase(wl, state, 3, 3, tracer)
    finally:
        tracer.uninstall()
    assert (wl.fingerprint_rows(state, traced)
            == wl.fingerprint_rows(plain_state, plain))
    walls = sum(op.wall_s for op in traced)
    assert sum(tracer.self_s.values()) == pytest.approx(walls)
    assert tracer.attributed_s() >= 0.9 * walls
    for layer in ("engine", "world", "protocol", "local"):
        assert tracer.self_s[layer] > 0, layer
    metrics = layers.layer_metrics(tracer, traced, oracle_s=0.0,
                                   trace_overhead=1.0, calib_ms=1.0,
                                   host_scale=1.0, drr=0.5)
    assert list(metrics) == list(layers.PER_LAYER)


def test_benchmark_definition_matches_the_runner():
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def test_one_shot_ops_follow_the_query_arrival_model():
    wl = small_bf()
    ops = [op.params for op in itertools.islice(wl.op_inputs(4), 60)]
    assert ops == [op.params for op in itertools.islice(wl.op_inputs(4), 60)]
    assert ops != [op.params for op in itertools.islice(wl.op_inputs(5), 60)]
    assert all(0 <= device < wl.devices and gap >= 0 for device, gap in ops)
    # 60 ops at 1-2 queries per device span several arrival windows.
    assert sum(gap for _, gap in ops) > 2 * wl.scale.sim_time
