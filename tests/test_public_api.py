"""Public API surface contract.

Everything a downstream user is documented to import from ``repro``
must exist, be importable, and carry a docstring. This is the test that
keeps refactors from silently breaking the README.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro

#: The only environment variables the package reads. A new knob must
#: earn its place here; a second code path behind a selector does not.
ENV_KNOBS = {"REPRO_CACHE_DIR", "REPRO_OBS", "REPRO_WORKERS"}


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
        import importlib

        module = importlib.import_module(module_name)
        assert hasattr(module, "__all__") and module.__all__
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_version(self):
        assert repro.__version__


class TestPublicModuleDocstrings:
    @pytest.mark.parametrize("module_name", [
        "repro", "repro.core.skyline", "repro.core.filtering",
        "repro.core.local", "repro.core.assembly", "repro.core.query",
        "repro.storage.hybrid",
        "repro.storage.flat", "repro.storage.ring",
        "repro.storage.domain_store", "repro.net.engine",
        "repro.net.mobility", "repro.net.world", "repro.net.aodv",
        "repro.protocol.device", "repro.protocol.static_grid",
        "repro.protocol.redistribution",
        "repro.devices.cost_model", "repro.devices.energy",
        "repro.metrics.drr", "repro.experiments.sensitivity",
    ])
    def test_module_has_docstring(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20


class TestEnvironmentKnobs:
    def test_src_reads_only_the_known_variables(self):
        src = Path(repro.__file__).parent
        found = set()
        for path in src.rglob("*.py"):
            found.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        assert found == ENV_KNOBS
