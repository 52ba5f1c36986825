"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.data import make_global_dataset
from repro.storage import Relation, uniform_schema

# ``--hypothesis-profile=deep`` runs ten times hypothesis's default number
# of examples for every test that takes its example count from the
# active profile, e.g. the routing properties.
settings.register_profile("deep", max_examples=1000, print_blob=True)


@pytest.fixture(scope="session", autouse=True)
def _session_run_cache_dir(tmp_path_factory):
    """Point the persistent run cache at a session tmp dir so test runs
    never write ``.repro_cache`` into the working tree."""
    mp = pytest.MonkeyPatch()
    mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("run-cache")))
    yield
    mp.undo()


@pytest.fixture(autouse=True)
def _reset_executor_overrides():
    """``repro.experiments.configure()`` state must not leak across tests."""
    from repro.experiments import executor

    yield
    executor._workers_override = None
    executor._cache_override = None
    executor._cache_instance = None
    executor._cache_instance_root = None


@pytest.fixture
def rng():
    """A deterministic RNG for one test."""
    return np.random.default_rng(12345)


@pytest.fixture
def schema2():
    """A 2-attribute MIN schema over [0, 1000]."""
    return uniform_schema(2)


@pytest.fixture
def schema3():
    """A 3-attribute MIN schema over [0, 1000]."""
    return uniform_schema(3)


@pytest.fixture
def small_relation(rng, schema2):
    """A 200-row random relation over schema2."""
    xy = np.column_stack([rng.uniform(0, 1000, 200), rng.uniform(0, 1000, 200)])
    values = rng.uniform(0, 1000, (200, 2))
    return Relation(schema2, xy, values)


@pytest.fixture
def small_dataset():
    """A 9-device dataset with 3K tuples (integer attributes)."""
    return make_global_dataset(
        3000, 2, 9, "independent", seed=777, value_step=1.0
    )


@pytest.fixture
def medium_dataset():
    """A 25-device dataset with 10K tuples."""
    return make_global_dataset(
        10_000, 2, 25, "independent", seed=778, value_step=1.0
    )


def relation_from_values(values, schema=None, rng_seed=0):
    """Helper: wrap raw value rows in a relation with random locations."""
    values = np.asarray(values, dtype=np.float64)
    if schema is None:
        schema = uniform_schema(values.shape[1])
    rng = np.random.default_rng(rng_seed)
    xy = np.column_stack(
        [
            rng.uniform(0, 1000, values.shape[0]),
            rng.uniform(0, 1000, values.shape[0]),
        ]
    )
    return Relation(schema, xy, values)
