"""Public API surface contract.

Everything a downstream user is documented to import from ``repro``
must exist, be importable, and carry a docstring. This is the test that
keeps refactors from silently breaking the README.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import sys
from pathlib import Path

import pytest

import repro

#: The only environment variables the package reads. A new knob must
#: earn its place here; a second code path behind a selector does not.
ENV_KNOBS = {"REPRO_CACHE_DIR", "REPRO_OBS", "REPRO_WORKERS"}

#: The only modules outside the standard library that ``src/repro`` may
#: import. A new runtime dependency must earn its place here (and in
#: ``pyproject.toml``).
RUNTIME_DEPENDENCIES = {"numpy"}

#: The settable fields of the configuration classes. A value that no
#: measured workload varies is a module constant, not a field: a field
#: that comes back must change this pin.
CONFIG_FIELDS = {
    "repro.protocol.ProtocolConfig": (
        "use_filter", "dynamic_filter", "cost_model", "query_timeout",
        "completion_quorum", "ack_timeout", "result_retries",
        "token_watchdog", "token_reissues", "resilience",
    ),
    "repro.resilience.ResiliencePolicy": ("df_failover", "orphan_suppression"),
    "repro.protocol.SimulationConfig": (
        "strategy", "sim_time", "radio", "protocol", "speed_range", "seed",
        "drain_time", "faults",
    ),
    "repro.net.RadioConfig": ("radio_range", "loss_rate"),
    "repro.continuous.ContinuousConfig": (
        "mode", "devices", "cardinality", "d", "originator", "interval",
        "epochs", "data_updates", "updates", "faults", "loss_rate", "seed",
        "capture_reference", "static_grid", "protocol",
    ),
}


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing {name!r}"

    def test_readme_imports(self):
        """The exact imports the README shows."""

    @pytest.mark.parametrize("name", [
        "SkylineQuery", "FilteringTuple", "Estimation", "Relation",
        "HybridStorage", "FlatStorage", "DomainStorage", "RingStorage",
        "BFDevice", "DFDevice", "Simulator", "World", "RandomWaypoint",
        "AodvRouter", "PDA_2006", "EnergyMeter",
    ])
    def test_key_types_exported(self, name):
        assert hasattr(repro, name)

    def test_public_callables_documented(self):
        undocumented = []
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if callable(obj) and not inspect.getdoc(obj):
                undocumented.append(name)
        assert not undocumented, f"missing docstrings: {undocumented}"


class TestSubpackageSurfaces:
    @pytest.mark.parametrize("module_name", [
        "repro.core", "repro.storage", "repro.data", "repro.net",
        "repro.protocol", "repro.devices", "repro.metrics",
        "repro.experiments", "repro.obs", "repro.continuous",
        "repro.faults", "repro.resilience",
    ])
    def test_subpackage_all_resolves(self, module_name):
        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__") and module.__all__
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version(self):
        assert repro.__version__

    def test_frame_kinds_are_pinned(self):
        from repro.net import FrameKind

        kinds = {
            value for name, value in vars(FrameKind).items()
            if name.isupper() and isinstance(value, str)
        }
        assert kinds == {
            "rreq", "rrep", "rerr", "data", "query", "result", "token", "ack",
            "subscribe", "delta", "unsubscribe",
        }


class TestExtensionsLiveOutsideSrc:
    """The paper's Section 7 extensions (redistribution, filter sets)
    live in ``tests/extensions`` beside their only users; no command or
    workload runs them, so ``src/`` names neither."""

    def test_src_names_no_extension(self):
        src = Path(repro.__file__).parent
        words = ("redistribut", "select_filter_set", "TRANSFER", "MAINTENANCE")
        found = sorted(
            (str(path.relative_to(src)), word)
            for path in src.rglob("*.py")
            for word in words
            if word in path.read_text()
        )
        assert found == []


class TestPublicModuleDocstrings:
    @pytest.mark.parametrize("module_name", [
        "repro", "repro.core.skyline", "repro.core.filtering",
        "repro.core.local", "repro.core.assembly", "repro.core.query",
        "repro.storage.hybrid",
        "repro.storage.flat", "repro.storage.ring",
        "repro.storage.domain_store", "repro.net.engine",
        "repro.net.mobility", "repro.net.world", "repro.net.aodv",
        "repro.protocol.device", "repro.protocol.static_grid",
        "repro.devices.cost_model", "repro.devices.energy",
        "repro.metrics.drr", "repro.experiments.sensitivity",
    ])
    def test_module_has_docstring(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20


class TestEnvironmentKnobs:
    def test_src_reads_only_the_known_variables(self):
        src = Path(repro.__file__).parent
        found = set()
        for path in src.rglob("*.py"):
            found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert found == ENV_KNOBS


class TestRuntimeDependencies:
    def test_src_imports_only_stdlib_and_numpy(self):
        """Every absolute import in ``src/repro`` names the package
        itself, a standard-library module or a declared dependency,
        wherever it sits (function bodies and ``TYPE_CHECKING`` blocks
        included)."""
        src = Path(repro.__file__).parent
        allowed = set(sys.stdlib_module_names) | RUNTIME_DEPENDENCIES | {"repro"}
        found = {}
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    top = name.split(".")[0]
                    if top not in allowed:
                        found.setdefault(top, str(path.relative_to(src)))
        assert found == {}

    def test_pyproject_declares_exactly_the_runtime_dependencies(self):
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        match = re.search(
            r"^dependencies = \[(.*?)\]", pyproject.read_text(), re.M | re.S
        )
        declared = {
            re.split(r"[<>=!~ ]", spec.strip().strip('"'))[0]
            for spec in match.group(1).split(",") if spec.strip()
        }
        assert declared == RUNTIME_DEPENDENCIES


class TestSettableValues:
    @pytest.mark.parametrize("path", sorted(CONFIG_FIELDS))
    def test_config_fields_are_pinned(self, path):
        module_name, cls_name = path.rsplit(".", 1)
        cls = getattr(importlib.import_module(module_name), cls_name)
        names = tuple(f.name for f in dataclasses.fields(cls))
        assert names == CONFIG_FIELDS[path]

    def test_stream_analyzer_takes_only_detectors(self):
        from repro.obs import StreamAnalyzer

        params = inspect.signature(StreamAnalyzer.__init__).parameters
        assert list(params) == ["self", "detectors"]

    def test_routing_has_no_config_object(self):
        """AODV's timers and TTL are constants of ``repro.net.aodv``:
        the radio is the only configuration class ``repro.net``
        exports."""
        import repro.net

        configs = [n for n in repro.net.__all__ if n.endswith("Config")]
        assert configs == ["RadioConfig"]
        assert set(configs) <= set(repro.__all__)
        assert not [
            n for n in repro.__all__
            if n.startswith("Aodv") and n.endswith("Config")
        ]
