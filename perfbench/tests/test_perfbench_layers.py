"""Self-time attribution and installation of the benchmark's tracer."""

import pytest

import layers


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    tracer = layers.Tracer(clock=clock)
    tracer.active = True
    return tracer


def nested_calls(tracer, clock):
    """world:outer (1.0 + 0.5 own) calls local:inner (2.0) and
    world:same (0.25)."""
    inner = tracer.timed("local", "inner", lambda: clock.work(2.0))
    same = tracer.timed("world", "same", lambda: clock.work(0.25))

    def body():
        clock.work(1.0)
        inner()
        same()
        clock.work(0.5)

    tracer.timed("world", "outer", body)()


def test_self_time_excludes_wrapped_children(tracer, clock):
    nested_calls(tracer, clock)
    assert tracer.self_s["world"] == pytest.approx(1.75)
    assert tracer.self_s["local"] == pytest.approx(2.0)
    assert tracer.attributed_s() == pytest.approx(3.75)
    assert tracer.calls == {"outer": 1, "inner": 1, "same": 1}


def test_spans_mark_layer_boundaries_only(tracer, clock):
    tracer.op = 7
    nested_calls(tracer, clock)
    inner, outer = tracer.spans
    assert (inner[3], inner[4]) == ("local", "inner")
    assert (outer[3], outer[4]) == ("world", "outer")
    assert inner[1] == outer[0] and outer[1] is None
    assert inner[2] == outer[2] == 7
    assert (outer[5], outer[6]) == (0.0, 3.75)


def test_an_exception_still_closes_the_call(tracer, clock):
    def fail():
        clock.work(1.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        tracer.timed("aodv", "fail", fail)()
    assert tracer._stack == []
    assert tracer.self_s["aodv"] == pytest.approx(1.0)


def test_inactive_tracer_records_nothing(clock):
    tracer = layers.Tracer(clock=clock)
    tracer.timed("world", "f", lambda: clock.work(1.0))()
    assert not tracer.self_s and not tracer.calls and not tracer.spans


def test_event_callbacks_are_charged_to_their_defining_module(tracer, clock):
    def callback():
        clock.work(1.0)

    for module in ("repro.net.world", "repro.protocol.redistribution", "elsewhere"):
        callback.__module__ = module
        tracer.event_callback(callback)()
    assert dict(tracer.self_s) == {"world": 1.0, "protocol": 1.0, "other": 1.0}
    assert tracer.attributed_s() == pytest.approx(2.0)


def test_install_wraps_entry_points_and_uninstall_restores():
    import repro.protocol.device as device
    from repro.net.engine import Simulator

    run_before = vars(Simulator)["run"]
    local_before = device.local_skyline_vectorized
    tracer = layers.Tracer().install()
    try:
        assert vars(Simulator)["run"] is not run_before
        assert device.local_skyline_vectorized is not local_before
        with pytest.raises(RuntimeError):
            tracer.install()
        sim = Simulator()
        fired = []
        tracer.active = True
        sim.schedule(1.0, lambda: fired.append(sim.now))
        sim.run()
        tracer.active = False
        assert fired == [1.0]
        assert tracer.calls["Simulator.run"] == 1
        assert tracer.calls["Simulator.schedule"] == 1
        assert tracer.layer_calls["other"] == 1  # this test's own callback
    finally:
        tracer.uninstall()
    assert vars(Simulator)["run"] is run_before
    assert device.local_skyline_vectorized is local_before


def test_op_time_no_wrapper_covers_goes_to_other(tracer, clock):
    tracer.timed("world", "f", lambda: clock.work(1.0))()
    tracer.end_op(1.5)
    assert tracer.self_s["other"] == pytest.approx(0.5)
    assert tracer.attributed_s() == pytest.approx(1.0)


def test_constructors_are_wrapped():
    from repro.net.engine import Simulator

    tracer = layers.Tracer().install()
    try:
        tracer.active = True
        Simulator()
        tracer.active = False
        assert tracer.calls["Simulator.__init__"] == 1
    finally:
        tracer.uninstall()
