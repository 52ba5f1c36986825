"""Observability layer: registry, observer, exporters, and
the passivity contract (traced runs are bit-identical to untraced).
"""

from __future__ import annotations

import json

import pytest

from repro.continuous import ContinuousConfig, run_continuous_simulation
from repro.core.query import SkylineQuery
from repro.data import QueryRequest, make_global_dataset
from repro.experiments.config import ExperimentScale
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
    NULL_OBSERVER,
    MetricsRegistry,
    Observer,
    build_query_trees,
    configure_telemetry,
    export_chrome_trace,
    export_jsonl,
    query_key_of,
    query_summary,
    telemetry_root,
    validate_chrome_trace,
)
from repro.protocol import (
    BFDevice,
    DFDevice,
    ProtocolConfig,
    SimulationConfig,
    run_manet_simulation,
)
from repro.protocol.messages import QueryMessage, ResultMessage


@pytest.fixture(scope="module")
def dataset():
    return make_global_dataset(900, 2, 9, "independent", seed=41, value_step=1.0)


#: 3x3 grid at 150 m spacing — fully connected at 250 m radio range.
GRID_POSITIONS = [(150.0 * (i % 3), 150.0 * (i // 3)) for i in range(9)]

WORKLOAD = [
    QueryRequest(time=1.0, device=0, distance=2000.0),
    QueryRequest(time=120.0, device=4, distance=2000.0),
]


def run_sim(dataset, strategy, observer=None, faults=None, protocol=None,
            sim_time=400.0, mobility="static"):
    config = SimulationConfig(
        strategy=strategy,
        sim_time=sim_time,
        seed=17,
        faults=faults,
        protocol=protocol if protocol is not None else ProtocolConfig(),
    )
    mob = StaticPlacement(GRID_POSITIONS) if mobility == "static" else None
    return run_manet_simulation(
        dataset, WORKLOAD, config, mobility=mob, observer=observer
    )


def run_signature(result):
    """Bit-level identity of everything a run produced."""
    return (
        [
            (
                r.key,
                r.issue_time,
                r.completion_time,
                r.closed,
                r.aborted_by_crash,
                r.reissues,
                sorted(r.contributions),
                r.result.values.tobytes(),
                sorted(r.reachable_at_issue),
            )
            for r in result.records
        ],
        (
            result.traffic.transmissions,
            result.traffic.deliveries,
            result.traffic.drops,
            result.traffic.bytes_sent,
            dict(result.traffic.by_kind),
        ),
        result.issued,
        result.suppressed,
        result.events,
        result.energy_joules,
        result.fault_events,
    )


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("net.tx.frames").inc()
        reg.counter("net.tx.frames").inc(4)
        reg.gauge("sim.time").set(7.5)
        hist = reg.histogram("core.local.wall_s")
        hist.observe(1.0)
        hist.observe(3.0)
        snap = reg.snapshot()
        assert snap["net.tx.frames"] == 5
        assert snap["sim.time"] == 7.5
        assert snap["core.local.wall_s"]["count"] == 2
        assert snap["core.local.wall_s"]["mean"] == pytest.approx(2.0)
        assert snap["core.local.wall_s"]["min"] == 1.0
        assert snap["core.local.wall_s"]["max"] == 3.0
        assert len(reg) == 3

    def test_same_name_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_render_lists_instruments(self):
        reg = MetricsRegistry()
        reg.counter("protocol.queries.issued").inc(3)
        assert "protocol.queries.issued" in reg.render()


# ---------------------------------------------------------------------------
# Observer mechanics
# ---------------------------------------------------------------------------


class _Listener:
    def __init__(self, world, node_id):
        self.node_id = node_id
        world.attach(self)

    def on_frame(self, frame, sender):
        pass


def broadcast_from_middle(before=None, after=None):
    """Node 1 of a three-node line broadcasts one observed QUERY frame;
    ``before`` / ``after`` act on the world around the send."""
    sim = Simulator()
    world = World(
        sim, StaticPlacement([(0.0, 0.0), (100.0, 0.0), (200.0, 0.0)]),
        RadioConfig(radio_range=150.0), seed=5,
    )
    for node in range(3):
        _Listener(world, node)
    obs = Observer().bind(world)
    query = SkylineQuery(origin=1, cnt=0, pos=(100.0, 0.0), d=10.0)
    obs.query_issued(query.key, node=1)
    if before is not None:
        before(world)
    world.broadcast(Frame(
        kind=FrameKind.QUERY, src=1, dst=None,
        payload=QueryMessage(query=query, flt=None, hops=1), size_bytes=32,
    ))
    if after is not None:
        after(world)
    sim.run()
    return obs


def broadcast_drops(obs):
    """Receivers named by ``frame.dropped`` events and by causal drops."""
    events = sorted(e.node for e in obs.events if e.name == "frame.dropped")
    causal = sorted(e.node for e in obs.causal if e.kind == "drop")
    return events, causal


class TestObserver:
    def test_spans_auto_parent_to_query_root(self):
        obs = Observer()
        root = obs.query_issued((0, 0), node=0)
        child = obs.begin("hop", cat="net", query=(0, 0), node=0)
        obs.end(child)
        obs.query_closed((0, 0))
        trees = build_query_trees(obs)
        assert list(trees) == [(0, 0)]
        assert [n.span.sid for n in trees[(0, 0)].children] == [child]
        assert trees[(0, 0)].span.sid == root

    def test_end_with_explicit_time(self):
        obs = Observer()
        sid = obs.begin("local-eval", cat="core")
        obs.end(sid, t=12.5)
        assert obs.spans[0].t1 == 12.5

    def test_unicast_hop_span_opens_and_closes(self):
        obs = Observer()
        frame = Frame(kind=FrameKind.DATA, src=0, dst=1, payload=None,
                      size_bytes=64)
        obs.frame_sent(frame)
        assert obs.spans[-1].name == "hop"
        obs.frame_delivered(frame, node=1)
        assert obs.spans[-1].attrs["outcome"] == "delivered"
        assert obs.metrics.counter("net.tx.frames").value == 1
        assert obs.metrics.counter("net.rx.frames").value == 1

    def test_dropped_hop_records_reason(self):
        obs = Observer()
        frame = Frame(kind=FrameKind.TOKEN, src=0, dst=1, payload=None,
                      size_bytes=64)
        obs.frame_sent(frame)
        obs.frame_dropped(frame, 1, "moved")
        span = obs.spans[-1]
        assert span.attrs["outcome"] == "dropped"
        assert span.attrs["reason"] == "moved"
        assert span.t1 is not None
        assert obs.metrics.counter("net.drops.moved").value == 1

    def test_broadcast_is_an_instant_event(self):
        obs = Observer()
        frame = Frame(kind=FrameKind.QUERY, src=0, dst=None, payload=None,
                      size_bytes=32)
        obs.frame_sent(frame)
        assert obs.spans == []
        assert obs.events[-1].name == "frame.broadcast"

    def test_broadcast_loss_drops_name_each_receiver(self):
        obs = broadcast_from_middle(
            before=lambda world: world.set_loss_override(1.0)
        )
        assert broadcast_drops(obs) == ([0, 2], [0, 2])

    def test_broadcast_blackout_drop_names_the_cut_receiver(self):
        # The link goes dark while the frame is in flight, so the wave
        # re-check drops the copy bound for node 2.
        obs = broadcast_from_middle(
            after=lambda world: world.set_link_blackout(1, 2, True)
        )
        assert broadcast_drops(obs) == ([2], [2])

    def test_query_alias_routes_to_root(self):
        obs = Observer()
        obs.query_issued((3, 0), node=3)
        obs.alias((3, 1), (3, 0))
        obs.event("token.reissue", query=(3, 0), new_cnt=1)
        sid = obs.begin("hop", cat="net", query=(3, 1), node=3)
        obs.end(sid)
        obs.event("token.received", query=(3, 1), node=5)
        obs.query_closed((3, 0))
        trees = build_query_trees(obs)
        assert list(trees) == [(3, 0)]
        assert [n.span.name for n in trees[(3, 0)].children] == ["hop"]
        names = [e.name for e in trees[(3, 0)].events]
        assert "token.reissue" in names and "token.received" in names

    def test_finalize_closes_open_spans(self):
        obs = Observer()
        obs.query_issued((0, 0), node=0)
        obs.finalize()
        assert obs.spans[0].t1 is not None
        assert obs.spans[0].attrs["outcome"] == "unfinished"

    def test_null_observer_is_shared_and_disabled(self):
        assert not NULL_OBSERVER.enabled
        with pytest.raises(AttributeError):
            NULL_OBSERVER.event("y")

    def test_query_key_of(self):
        query = SkylineQuery(origin=2, cnt=5, pos=(0.0, 0.0), d=10.0)
        assert query_key_of(QueryMessage(query=query, flt=None, hops=1)) == (2, 5)
        reply = ResultMessage(
            query_key=(2, 5), sender=1, skyline=None, unreduced_size=0,
            skipped=None, processing_time=0.0,
        )
        assert query_key_of(reply) == (2, 5)
        assert query_key_of({"rreq_id": 1}) is None


# ---------------------------------------------------------------------------
# Telemetry configuration
# ---------------------------------------------------------------------------


class TestTelemetryConfig:
    def test_env_and_override(self, monkeypatch, tmp_path):
        import repro.obs as obs_pkg

        monkeypatch.setattr(obs_pkg, "_telemetry_override", None)
        monkeypatch.delenv("REPRO_OBS", raising=False)
        assert telemetry_root() is None
        monkeypatch.setenv("REPRO_OBS", str(tmp_path))
        assert telemetry_root() == tmp_path
        monkeypatch.setenv("REPRO_OBS", "off")
        assert telemetry_root() is None
        configure_telemetry(str(tmp_path / "cli"))
        assert telemetry_root() == tmp_path / "cli"
        configure_telemetry("off")
        assert telemetry_root() is None


# ---------------------------------------------------------------------------
# Passivity: traced == untraced, bit for bit
# ---------------------------------------------------------------------------


FAULTS = (
    FaultSchedule()
    .crash(30.0, node=7, downtime=40.0)
    .link_blackout(10.0, 0, 1, duration=60.0)
    .loss_burst(110.0, rate=0.6, duration=30.0)
)


class TestPassivity:
    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_traced_run_is_bit_identical(self, dataset, strategy):
        baseline = run_sim(dataset, strategy, faults=FAULTS)
        traced = run_sim(dataset, strategy, faults=FAULTS,
                         observer=Observer())
        assert run_signature(traced) == run_signature(baseline)

    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_traced_run_is_bit_identical_under_mobility(self, dataset,
                                                        strategy):
        baseline = run_sim(dataset, strategy, mobility=None)
        traced = run_sim(dataset, strategy, mobility=None,
                         observer=Observer())
        assert run_signature(traced) == run_signature(baseline)


# ---------------------------------------------------------------------------
# Fault annotations in the trace
# ---------------------------------------------------------------------------


class TestFaultTracing:
    @pytest.fixture(scope="class")
    def traced(self, dataset):
        obs = Observer()
        result = run_sim(dataset, "bf", faults=FAULTS, observer=obs)
        return obs, result

    def test_crash_and_recovery_recorded(self, traced):
        obs, _ = traced
        kinds = [f.name for f in obs.faults]
        assert "fault.node-crash" in kinds
        assert "fault.node-recover" in kinds
        crash = next(f for f in obs.faults if f.name == "fault.node-crash")
        assert crash.node == 7
        assert crash.time == pytest.approx(30.0)
        assert obs.metrics.counter("faults.node-crash").value == 1

    def test_blackout_recorded_with_link(self, traced):
        obs, _ = traced
        down = next(f for f in obs.faults if f.name == "fault.link-down")
        assert down.attrs["link"] == (0, 1)
        assert any(f.name == "fault.link-up" for f in obs.faults)

    def test_loss_burst_recorded(self, traced):
        obs, _ = traced
        overrides = [f for f in obs.faults if f.name == "fault.loss-override"]
        assert overrides[0].attrs["loss_rate"] == pytest.approx(0.6)
        assert overrides[-1].attrs["loss_rate"] is None  # burst end

    def test_faults_during_window(self, traced):
        obs, _ = traced
        assert any(
            f.name == "fault.node-crash" for f in obs.faults_during(25.0, 35.0)
        )
        assert obs.faults_during(1000.0, 2000.0) == []

    def test_summary_annotates_overlapping_faults(self, traced):
        obs, _ = traced
        summary = query_summary(obs)
        # the first query (issued at t=1, closed at the final sim time)
        # overlaps every scheduled fault
        line = next(
            ln for ln in summary.splitlines() if ln.startswith("0:0")
        )
        assert "fault.node-crash" in line

    def test_originator_crash_marks_span_aborted(self, dataset):
        # park a device out of range so BF's full quorum never fires,
        # leaving the query open for the crash to abort
        positions = list(GRID_POSITIONS)
        positions[8] = (9000.0, 9000.0)
        obs = Observer()
        sim = Simulator()
        world = World(
            sim, StaticPlacement(positions), RadioConfig(radio_range=250.0)
        )
        obs.bind(world)
        config = ProtocolConfig(completion_quorum=1.0, query_timeout=300.0)
        devices = [
            BFDevice(world, i, dataset.local(i), config=config)
            for i in range(dataset.devices)
        ]
        record = devices[0].issue_query(d=2000.0)
        sim.schedule_at(10.0, world.fail_node, 0)
        sim.run(until=60.0)
        assert record.aborted_by_crash
        root = next(s for s in obs.spans if s.name == "query")
        assert root.attrs.get("aborted_by_crash") is True
        assert root.t1 == pytest.approx(10.0)
        assert any(e.name == "query.aborted-by-crash" for e in obs.events)


class TestTokenReissueTracing:
    #: Pair 0-1 in range; everyone else partitioned far away (and
    #: mutually disconnected), mirroring tests/test_recovery.py.
    POSITIONS = [(0.0, 0.0), (200.0, 0.0)] + [
        (9000.0 + 300.0 * i, 9000.0) for i in range(7)
    ]

    def run(self, dataset, config, crash_at=None, downtime=None):
        obs = Observer()
        sim = Simulator()
        world = World(
            sim, StaticPlacement(self.POSITIONS),
            RadioConfig(radio_range=250.0),
        )
        obs.bind(world)
        devices = [
            DFDevice(world, i, dataset.local(i), config=config)
            for i in range(dataset.devices)
        ]
        if crash_at is not None:
            sim.schedule_at(crash_at, world.fail_node, 1)
            if downtime is not None:
                sim.schedule_at(crash_at + downtime, world.restore_node, 1)
        record = devices[0].issue_query(d=1.0e6)
        sim.run(until=500.0)
        obs.finalize()
        return obs, record

    def test_reissue_aliases_onto_root_tree(self, dataset):
        # clean run: when does the token reach device 1, and when does
        # device 1 first transmit afterwards (the return trip)?
        config = ProtocolConfig(token_watchdog=60.0, token_reissues=2,
                                query_timeout=400.0)
        clean, _ = self.run(dataset, config)
        hops = [s for s in clean.spans if s.name == "hop"]
        token_out = next(
            s for s in hops if s.node == 0 and s.attrs["frame"] == "token"
        )
        t_out, t_in = token_out.t0, token_out.t1
        t_back = min(s.t0 for s in hops if s.node == 1 and s.t0 > t_in)
        assert t_out <= t_in < t_back

        # crash device 1 while it holds the token; the watchdog
        # re-issues under an incremented cnt after device 1 rejoins
        crash_at = (t_in + t_back) / 2.0
        config = ProtocolConfig(
            token_watchdog=crash_at + 3.0 - t_out, token_reissues=2,
            query_timeout=400.0,
        )
        obs, record = self.run(dataset, config, crash_at=crash_at,
                               downtime=1.0)
        assert record.reissues == 1
        reissues = [e for e in obs.events if e.name == "token.reissue"]
        assert len(reissues) == 1
        assert reissues[0].query == record.query.key
        # one root tree only; the re-issued walk folds into it
        assert obs.query_keys() == [record.query.key]
        trees = build_query_trees(obs)
        tree = trees[record.query.key]
        event_names = {e.name for e in tree.events}
        assert "token.reissue" in event_names
        assert any(e.name == "token.received" for e in tree.events)
        # faults live in their own stream, not inside query trees
        assert "fault.node-crash" not in event_names
        assert [f.name for f in obs.faults] == [
            "fault.node-crash", "fault.node-recover"
        ]


# ---------------------------------------------------------------------------
# Reconciliation with run-level accounting
# ---------------------------------------------------------------------------


class TestReconciliation:
    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_counters_match_traffic_stats(self, dataset, strategy):
        obs = Observer()
        result = run_sim(dataset, strategy, observer=obs)
        counters = obs.metrics
        assert counters.counter("net.tx.frames").value == \
            result.traffic.transmissions
        assert counters.counter("net.rx.frames").value == \
            result.traffic.deliveries
        assert counters.counter("net.drops").value == result.traffic.drops
        assert counters.counter("net.tx.bytes").value == \
            result.traffic.bytes_sent
        snap = counters.snapshot()
        assert snap["net.final.transmissions"] == \
            result.traffic.transmissions
        assert snap["sim.queries.issued"] == result.issued

    @pytest.mark.parametrize("strategy", ["bf", "df"])
    def test_span_tree_reconciles_with_records(self, dataset, strategy):
        obs = Observer()
        result = run_sim(dataset, strategy, observer=obs)
        trees = build_query_trees(obs)
        assert len(trees) == len(result.records) == 2
        for record in result.records:
            tree = trees[record.key]
            root = tree.span
            assert root.node == record.originator
            assert root.t0 == pytest.approx(record.issue_time)
            assert root.t1 is not None
            if record.completion_time is not None:
                assert root.attrs["completion_time"] == pytest.approx(
                    record.completion_time
                )
            # every leaf interval sits inside the query's lifetime
            for node in tree.walk():
                if not node.children and node.span.t1 is not None:
                    assert node.span.t0 >= root.t0 - 1e-9
                    assert node.span.t1 <= root.t1 + 1e-9
            merged = [e for e in tree.events if e.name == "result.merged"]
            assert len(merged) == len(record.contributions)
            assert {e.attrs["sender"] for e in merged} == set(
                record.contributions
            )

    def test_local_eval_spans_cover_every_computation(self, dataset):
        obs = Observer()
        run_sim(dataset, "bf", observer=obs)
        evals = [s for s in obs.spans if s.name == "local-eval"]
        assert evals
        assert obs.metrics.counter("core.local.evaluations").value == \
            len(evals)
        for span in evals:
            assert span.t1 >= span.t0
            assert span.attrs["scanned"] >= span.attrs["in_range"]


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


class TestExporters:
    @pytest.fixture(scope="class")
    def traced(self, dataset):
        obs = Observer()
        result = run_sim(dataset, "df", observer=obs)
        return obs, result

    def test_jsonl_round_trips(self, traced, tmp_path):
        obs, _ = traced
        path = tmp_path / "spans.jsonl"
        count = export_jsonl(obs, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(obs.spans) + len(obs.events)
        recs = [json.loads(line) for line in lines]
        assert {r["rec"] for r in recs} == {"span", "event"}
        roots = [r for r in recs if r["rec"] == "span" and r["name"] == "query"]
        assert len(roots) == 2

    def test_chrome_trace_is_valid(self, traced):
        obs, _ = traced
        doc = export_chrome_trace(obs)
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"query", "local-eval", "thread_name"} <= names

    def test_empty_trace_is_valid(self):
        """A run that observed no spans exports an empty-but-valid
        document (Perfetto loads it fine); flagging span-less runs is
        the CLI's job, not the validator's."""
        doc = export_chrome_trace(Observer())
        assert doc["traceEvents"] == []
        assert validate_chrome_trace(doc) == []

    def test_validator_rejects_malformed_docs(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "?"}]}) != []
        bad_ts = {"traceEvents": [
            {"name": "x", "ph": "X", "ts": -1.0, "dur": 1.0, "pid": 0, "tid": 0}
        ]}
        assert any("bad ts" in p for p in validate_chrome_trace(bad_ts))

    def test_summary_lists_every_query(self, traced):
        obs, _ = traced
        summary = query_summary(obs)
        assert "0:0" in summary and "4:0" in summary


# ---------------------------------------------------------------------------
# CLI + executor integration
# ---------------------------------------------------------------------------


TINY = ExperimentScale(
    name="tiny",
    local_cardinalities=(100,),
    local_dim_cardinality=100,
    dimensionalities=(2,),
    static_cardinalities=(100,),
    static_fixed_cardinality=100,
    static_devices=9,
    device_counts=(9,),
    manet_cardinalities=(900,),
    manet_fixed_cardinality=900,
    manet_devices=9,
    manet_device_counts=(9,),
    sim_time=60.0,
    queries_per_device=(1, 1),
)


class TestIntegration:
    def test_trace_point_writes_bundle(self, tmp_path):
        from repro.experiments.tracing import trace_point

        observer, metrics = trace_point("df", TINY, directory=tmp_path)
        assert observer.query_keys()
        bundles = [p for p in tmp_path.glob("tiny/*") if p.is_dir()]
        assert len(bundles) == 1
        files = {p.name for p in bundles[0].iterdir()}
        assert files == {"spans.jsonl", "trace.json", "metrics.json",
                         "summary.txt"}
        doc = json.loads((bundles[0] / "trace.json").read_text())
        assert validate_chrome_trace(doc) == []
        run_doc = json.loads((bundles[0] / "metrics.json").read_text())
        assert run_doc["run"]["strategy"] == "df"
        assert run_doc["run"]["issued"] == metrics.issued

    def test_compute_point_emits_telemetry_when_configured(
        self, tmp_path, monkeypatch
    ):
        import repro.obs as obs_pkg
        from repro.experiments.manet_common import (
            ManetPoint,
            compute_manet_point,
        )

        monkeypatch.setattr(obs_pkg, "_telemetry_override", None)
        monkeypatch.setenv("REPRO_OBS", str(tmp_path))
        point = ManetPoint(
            strategy="bf", distance=500.0, cardinality=900, dimensions=2,
            devices=9, distribution="independent", scale_name="tiny",
            seed=TINY.seed,
        )
        traced = compute_manet_point(point, TINY)
        assert list(tmp_path.glob("tiny/bf_*/trace.json"))
        monkeypatch.setenv("REPRO_OBS", "off")
        untraced = compute_manet_point(point, TINY)
        assert traced == untraced  # telemetry changed no metric

    def test_trace_command_writes_each_bundle_once(
        self, tmp_path, monkeypatch, capsys
    ):
        """``repro trace --obs DIR`` writes one bundle per strategy: the
        traced point's caller owns its observer, so
        ``compute_manet_point`` does not write the same path first."""
        import repro.cli as cli
        import repro.experiments.tracing as tracing
        import repro.obs as obs_pkg

        writes = []
        dump = tracing.dump_run_telemetry

        def counting_dump(observer, directory, metrics=None):
            writes.append(directory)
            return dump(observer, directory, metrics=metrics)

        monkeypatch.setattr(tracing, "dump_run_telemetry", counting_dump)
        monkeypatch.setattr(obs_pkg, "_telemetry_override", None)
        monkeypatch.setenv("REPRO_OBS", str(tmp_path))
        args = cli.build_parser().parse_args(["trace", "--scale", "smoke"])
        assert cli._run_trace(args, TINY) == 0
        assert [d.parent.name for d in writes] == ["tiny", "tiny"]
        assert [d.name[:3] for d in writes] == ["bf_", "df_"]
        assert len(list(tmp_path.glob("tiny/*/trace.json"))) == 2

    def test_cli_accepts_trace_command(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["trace", "--scale", "smoke", "--obs", "off", "--strategy", "bf"]
        )
        assert args.figure == "trace"
        assert args.obs == "off"
        assert args.strategy == "bf"

    def test_trace_command_flags_spanless_runs(self, monkeypatch, capsys):
        """A trace run that observed zero spans still writes its (valid,
        empty) bundle but exits 3 with a loud warning — CI's tripwire
        for misconfigured telemetry."""
        import repro.cli as cli
        import repro.experiments.tracing as tracing

        monkeypatch.setattr(
            tracing, "trace_point",
            lambda strategy, scale, directory=None: (Observer(), None),
        )
        args = cli.build_parser().parse_args(
            ["trace", "--scale", "smoke", "--obs", "off", "--strategy", "bf"]
        )
        assert cli._run_trace(args, TINY) == 3
        assert "no spans observed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Continuous-path observability: instrumentation vs. protocol books
# ---------------------------------------------------------------------------


def continuous_run(faults=None):
    observer = Observer()
    config = ContinuousConfig(
        devices=9, cardinality=270, epochs=3, d=600.0, seed=7,
        data_updates=6, static_grid=True, loss_rate=0.0, faults=faults,
    )
    result = run_continuous_simulation(config, observer=observer)
    return observer, result


class TestContinuousObservability:
    """SUBSCRIBE / DELTA / heal-flood spans, events, and counters must
    reconcile with the per-epoch :class:`CompletionReport` books the
    protocol keeps on its own — two independent accounts of one run.
    """

    @pytest.fixture(scope="class")
    def healthy(self):
        return continuous_run()

    @pytest.fixture(scope="class")
    def crashed(self):
        """Contributor 7 crashes mid-subscription and recovers: two
        epochs with a coverage hole, then heal-flood re-enrollment."""
        return continuous_run(
            FaultSchedule().crash(25.0, node=7, downtime=30.0)
        )

    def _events(self, observer, name):
        return [e for e in observer.events if e.name == name]

    def test_subscription_span_covers_the_lifetime(self, healthy):
        observer, result = healthy
        record = result.record
        spans = [s for s in observer.spans if s.name == "subscription"]
        assert len(spans) == 1
        span = spans[0]
        assert span.query == record.spec.key
        assert span.t0 == record.spec.install_time
        assert span.t1 == record.epochs[-1].closed_at
        assert span.attrs["reason"] == record.status == "expired"
        counters = observer.metrics
        assert counters.counter(
            "continuous.subscriptions.installed").value == 1
        assert counters.counter("continuous.end.expired").value == 1
        ends = self._events(observer, "subscription.end")
        assert [(e.query, e.attrs["reason"]) for e in ends] == [
            (record.spec.key, "expired")
        ]

    def test_refresh_events_reconcile_with_epochs(self, healthy):
        observer, result = healthy
        record = result.record
        refreshes = self._events(observer, "subscription.refresh")
        assert [e.attrs["epoch"] for e in refreshes] == [
            epoch.epoch for epoch in record.epochs
        ]
        for event, epoch in zip(refreshes, record.epochs):
            assert event.attrs["reporters"] == len(epoch.reporters)
            assert event.attrs["messages"] == epoch.messages
        assert observer.metrics.counter(
            "continuous.epochs.closed").value == len(record.epochs)

    def test_merged_deltas_are_the_epoch_reporters(self, healthy):
        """Every fresh DELTA merge lands in exactly one epoch's
        ``reporters`` set — the event stream and the books agree both
        in total and per epoch (fault-free, so sender epochs align
        with close windows)."""
        observer, result = healthy
        record = result.record
        merged = self._events(observer, "delta.merged")
        assert observer.metrics.counter(
            "continuous.deltas.merged").value == len(merged)
        assert len(merged) == sum(
            len(epoch.reporters) for epoch in record.epochs
        )
        by_epoch = {}
        for event in merged:
            by_epoch.setdefault(event.attrs["epoch"], set()).add(
                event.attrs["sender"]
            )
        assert by_epoch == {
            epoch.epoch: set(epoch.reporters)
            for epoch in record.epochs if epoch.reporters
        }

    def test_every_sent_delta_merges_fault_free(self, healthy):
        observer, _ = healthy
        sent = self._events(observer, "delta.sent")
        merged = self._events(observer, "delta.merged")
        assert observer.metrics.counter(
            "continuous.deltas.sent").value == len(sent)
        assert sorted((e.node, e.attrs["epoch"]) for e in sent) == sorted(
            (e.attrs["sender"], e.attrs["epoch"]) for e in merged
        )

    def test_reporters_feed_the_completion_books(self, healthy):
        observer, result = healthy
        record = result.record
        originator = record.spec.key[0]
        for epoch in record.epochs:
            assert epoch.report is not None
            assert originator not in epoch.reporters
            assert set(epoch.reporters) <= set(epoch.report.contributed)
            assert epoch.report.outcome == "completed"
        assert observer.metrics.counter(
            "continuous.heal_floods").value == 0
        assert self._events(observer, "subscription.heal-flood") == []

    def test_data_update_events_match_schedule(self, healthy):
        observer, result = healthy
        updates = self._events(observer, "data.updated")
        assert len(updates) == len(result.update_events)
        assert observer.metrics.counter(
            "continuous.data_updates").value == len(updates)

    def test_heal_floods_fire_on_the_coverage_holes(self, crashed):
        """Heal-flood events name exactly the epochs whose completion
        report lost a device to the crash, and count the hole."""
        observer, result = crashed
        record = result.record
        heals = self._events(observer, "subscription.heal-flood")
        assert observer.metrics.counter(
            "continuous.heal_floods").value == len(heals) >= 1
        holes = {
            epoch.epoch: epoch.report.lost_to_fault
            for epoch in record.epochs
            if epoch.report is not None and epoch.report.lost_to_fault
        }
        assert {e.attrs["epoch"] for e in heals} == set(holes)
        originator = record.spec.key[0]
        for event in heals:
            assert event.node == originator
            assert event.query == record.spec.key
            assert event.attrs["missing"] == len(holes[event.attrs["epoch"]])

    def test_recovered_node_reenrolls_in_the_books(self, crashed):
        observer, result = crashed
        record = result.record
        crashed_node = 7
        holes = [
            epoch for epoch in record.epochs
            if epoch.report is not None
            and crashed_node in epoch.report.lost_to_fault
        ]
        assert holes
        for epoch in holes:
            assert crashed_node not in epoch.report.contributed
            assert epoch.report.outcome == "deadline-expired"
        healed = [
            epoch for epoch in record.epochs
            if epoch.epoch > holes[-1].epoch
            and crashed_node in epoch.reporters
        ]
        assert healed
        assert crashed_node in healed[-1].report.contributed
        merged = self._events(observer, "delta.merged")
        assert any(e.attrs["sender"] == crashed_node for e in merged)
        # Total reconciliation survives the fault: every fresh merge
        # still lands in exactly one epoch's reporters set.
        assert len(merged) == sum(
            len(epoch.reporters) for epoch in record.epochs
        )
