"""Per-node flight recorder: ring bounds, dump shapes, blackbox
round-trips, and crash/deadline/invariant trigger integration.
"""

from __future__ import annotations

import pytest

from repro.data import QueryRequest, make_global_dataset
from repro.faults import FaultSchedule
from repro.net import (
    Frame,
    FrameKind,
    RadioConfig,
    Simulator,
    StaticPlacement,
    World,
)
from repro.obs import (
    BLACKBOX_SCHEMA,
    FlightRecorder,
    Observer,
    load_blackbox,
    render_dump,
    validate_blackbox,
)
from repro.obs.flight import DEFAULT_FLIGHT_CAPACITY
from repro.protocol import ProtocolConfig, SimulationConfig, run_manet_simulation


GRID_POSITIONS = [(150.0 * (i % 3), 150.0 * (i // 3)) for i in range(9)]


# ---------------------------------------------------------------------------
# Ring mechanics
# ---------------------------------------------------------------------------


class TestRing:
    def test_bounded_eviction(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.note(0, f"ev{i}", float(i))
        ring = recorder.snapshot(0)
        assert [e.kind for e in ring] == ["ev2", "ev3", "ev4"]
        assert recorder.evicted == 2
        assert len(recorder) == 3

    def test_rings_are_per_node(self):
        recorder = FlightRecorder(capacity=4)
        recorder.note(0, "a", 1.0)
        recorder.note(2, "b", 2.0)
        assert recorder.nodes() == [0, 2]
        assert [e.kind for e in recorder.snapshot(2)] == ["b"]

    def test_none_node_is_noop(self):
        recorder = FlightRecorder(capacity=4)
        recorder.note(None, "a", 1.0)
        assert len(recorder) == 0

    def test_info_keys_may_shadow_positionals(self):
        """Event attrs legitimately named ``kind``/``time``/``query``
        must land in info, not collide with the record fields (the
        AODV give-up event carries a ``kind`` attr)."""
        recorder = FlightRecorder(capacity=4)
        recorder.note(1, "aodv.give-up", 5.0, None,
                      kind="query", time=4.5, query="alias", node=9)
        entry = recorder.snapshot(1)[0]
        assert entry.kind == "aodv.give-up"
        assert entry.time == 5.0
        assert entry.query is None
        assert entry.info == {
            "kind": "query", "time": 4.5, "query": "alias", "node": 9,
        }

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(capacity=-2)

    def test_default_capacity(self):
        assert FlightRecorder().capacity == DEFAULT_FLIGHT_CAPACITY



# ---------------------------------------------------------------------------
# Frame events: what the World reports onto the rings
# ---------------------------------------------------------------------------


class Sink:
    def __init__(self, world, node_id):
        self.node_id = node_id
        world.attach(self)

    def on_frame(self, frame, sender):
        pass


def line_world(observed):
    """Line 0-1-2: adjacent pairs in range, 0 and 2 out of range."""
    sim = Simulator()
    world = World(sim, StaticPlacement([(0, 0), (200, 0), (400, 0)]),
                  RadioConfig(radio_range=250.0))
    for i in range(3):
        Sink(world, i)
    observer = None
    if observed:
        observer = Observer().attach_flight(FlightRecorder()).bind(world)
    return sim, world, observer


def frame_script(sim, world):
    world.send(Frame(kind=FrameKind.RESULT, src=0, dst=1, size_bytes=42))
    sim.run()
    world.broadcast(Frame(kind=FrameKind.QUERY, src=1, dst=None))
    sim.run()
    world.set_link_blackout(0, 1, True)
    world.send(Frame(kind=FrameKind.TOKEN, src=0, dst=1))
    sim.run()


class TestFrameEvents:
    @pytest.fixture(scope="class")
    def observed(self):
        sim, world, observer = line_world(observed=True)
        frame_script(sim, world)
        return world, observer.flight

    @staticmethod
    def kinds(recorder, node, kind):
        return [e for e in recorder.snapshot(node) if e.kind == kind]

    def test_unicast_tx_on_sender_rx_on_receiver(self, observed):
        _, recorder = observed
        [tx] = self.kinds(recorder, 0, "tx.result")
        [rx] = self.kinds(recorder, 1, "rx.result")
        assert tx.info == {"dst": 1, "bytes": 42}
        assert rx.info == {"src": 0}
        assert rx.time > tx.time
        assert not self.kinds(recorder, 2, "rx.result")

    def test_broadcast_rx_on_exactly_the_in_range_receivers(self, observed):
        _, recorder = observed
        assert len(self.kinds(recorder, 1, "tx.query")) == 1
        heard = [n for n in recorder.nodes()
                 if self.kinds(recorder, n, "rx.query")]
        assert heard == [0, 2]

    def test_blacked_out_link_records_drop_with_reason(self, observed):
        _, recorder = observed
        assert len(self.kinds(recorder, 0, "tx.token")) == 1
        [drop] = self.kinds(recorder, 0, "drop.token")
        assert drop.info == {"reason": "no-link", "dst": 1}
        assert not self.kinds(recorder, 1, "rx.token")
        assert recorder.evicted == 0

    def test_observed_stats_equal_unobserved(self, observed):
        world, _ = observed
        sim, plain, _ = line_world(observed=False)
        frame_script(sim, plain)
        assert world.stats == plain.stats
        assert (world.stats.transmissions, world.stats.deliveries,
                world.stats.drops) == (3, 3, 1)


# ---------------------------------------------------------------------------
# Dumps
# ---------------------------------------------------------------------------


class TestDumps:
    def test_node_dump_freezes_whole_ring(self):
        recorder = FlightRecorder(capacity=8)
        for i in range(5):
            recorder.note(3, f"ev{i}", float(i), (3, 0))
        dump = recorder.dump("node-crash", 10.0, node=3, query=(3, 0),
                             detail="downtime=4")
        assert dump.trigger == "node-crash"
        assert len(dump.entries) == 5
        assert dump.entries[0]["kind"] == "ev0"
        assert recorder.dumps == [dump]

    def test_world_dump_tails_every_ring(self):
        recorder = FlightRecorder(capacity=8)
        for node in (0, 1):
            for i in range(6):
                recorder.note(node, f"n{node}e{i}", float(i * 2 + node))
        dump = recorder.dump("invariant-violation", 20.0, tail=2,
                             detail="conservation broke")
        assert dump.node is None
        assert len(dump.entries) == 4  # 2-entry tail per ring
        assert all("node" in e for e in dump.entries)
        times = [e["time"] for e in dump.entries]
        assert times == sorted(times)

    def test_dump_carries_causal_slice(self):
        recorder = FlightRecorder(capacity=4)
        recorder.note(0, "rx.query", 1.0)
        chain = [{"cid": 1, "kind": "issue", "time": 0.5, "node": 0}]
        dump = recorder.dump("deadline-expiry", 5.0, node=0, causal=chain)
        assert dump.causal == chain
        text = render_dump(dump.to_dict())
        assert "causal slice" in text
        assert "deadline-expiry" in text


# ---------------------------------------------------------------------------
# Blackbox document
# ---------------------------------------------------------------------------


class TestBlackbox:
    def test_round_trip(self, tmp_path):
        recorder = FlightRecorder(capacity=4)
        recorder.note(0, "rx.query", 1.0, (0, 0), src=4)
        recorder.dump("node-crash", 2.0, node=0, query=(0, 0))
        path = tmp_path / "blackbox.json"
        recorder.write_json(path)
        doc = load_blackbox(path)
        assert doc["schema"] == BLACKBOX_SCHEMA
        assert doc["capacity"] == 4
        assert doc["nodes"]["0"][0]["info"] == {"src": 4}
        assert len(doc["dumps"]) == 1

    def test_validator_rejects_malformed(self, tmp_path):
        assert validate_blackbox([]) == ["document is not a JSON object"]
        assert any("schema" in p for p in validate_blackbox({}))
        bad = {"schema": BLACKBOX_SCHEMA, "capacity": 4, "nodes": {},
               "dumps": [{"trigger": "x"}]}
        assert any("missing time" in p for p in validate_blackbox(bad))
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "nope"}')
        with pytest.raises(ValueError):
            load_blackbox(path)

    def test_non_jsonable_info_is_repr_coerced(self):
        recorder = FlightRecorder(capacity=4)
        recorder.note(0, "ev", 1.0, None, obj=object(), members={3, 1})
        entry = recorder.snapshot(0)[0].to_dict()
        assert isinstance(entry["info"]["obj"], str)
        assert entry["info"]["members"] == [1, 3]


# ---------------------------------------------------------------------------
# Trigger integration: crashes and deadline expiries dump automatically
# ---------------------------------------------------------------------------


class TestTriggers:
    @pytest.fixture(scope="class")
    def crashed_run(self):
        dataset = make_global_dataset(900, 2, 9, "independent", seed=41,
                                      value_step=1.0)
        observer = Observer().attach_flight(FlightRecorder())
        faults = FaultSchedule().crash(30.0, node=7, downtime=40.0)
        config = SimulationConfig(
            strategy="bf", sim_time=400.0, seed=17, faults=faults,
            protocol=ProtocolConfig(),
        )
        result = run_manet_simulation(
            dataset,
            [QueryRequest(time=1.0, device=0, distance=2000.0)],
            config, mobility=StaticPlacement(GRID_POSITIONS),
            observer=observer,
        )
        return observer, result

    def test_crash_triggers_node_dump(self, crashed_run):
        observer, _ = crashed_run
        dumps = [d for d in observer.flight.dumps
                 if d.trigger == "node-crash"]
        assert len(dumps) == 1
        dump = dumps[0]
        assert dump.node == 7
        assert dump.time == pytest.approx(30.0)
        # The ring captured the node's life before the crash.
        assert any(e["kind"].startswith(("rx.", "tx."))
                   for e in dump.entries)

    def test_crash_dump_has_causal_ancestry(self, crashed_run):
        observer, _ = crashed_run
        dump = next(d for d in observer.flight.dumps
                    if d.trigger == "node-crash")
        assert dump.causal
        assert dump.causal[0]["kind"] == "issue"

    def test_rings_cover_every_live_node(self, crashed_run):
        observer, _ = crashed_run
        assert observer.flight.nodes() == list(range(9))
