"""Pluggable failure-time distributions (repro.platform.failures.FailureModel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.exec.digest import config_digest
from repro.platform.failures import (
    FAILURE_MODEL_KINDS,
    FailureModel,
    generate_failure_trace,
)
from repro.units import DAY


# ------------------------------------------------------------- validation
def test_failure_model_defaults_to_exponential():
    model = FailureModel()
    assert model.kind == "exponential"
    assert model.shape == 1.0
    assert model.describe() == "exponential"


def test_failure_model_kinds_registered():
    assert set(FAILURE_MODEL_KINDS) == {"exponential", "weibull"}


def test_failure_model_rejects_unknown_kind_and_bad_shape():
    with pytest.raises(ConfigurationError):
        FailureModel(kind="lognormal")
    with pytest.raises(ConfigurationError):
        FailureModel(kind="weibull", shape=0.0)
    with pytest.raises(ConfigurationError):
        FailureModel(kind="weibull", shape=float("inf"))
    with pytest.raises(ConfigurationError):  # too large for a float
        FailureModel(kind="weibull", shape=10**400)
    # Exponential has no shape knob; forcing shape==1 keeps equal models equal.
    with pytest.raises(ConfigurationError):
        FailureModel(kind="exponential", shape=2.0)


def test_weibull_describe_includes_shape():
    assert FailureModel(kind="weibull", shape=0.7).describe() == "weibull(k=0.7)"


# ------------------------------------------------------------- generation
def test_default_model_is_bit_identical_to_legacy_exponential(tiny_platform):
    legacy = generate_failure_trace(tiny_platform, 30 * DAY, np.random.default_rng(5))
    explicit = generate_failure_trace(
        tiny_platform, 30 * DAY, np.random.default_rng(5), model=FailureModel()
    )
    assert list(legacy) == list(explicit)


def test_weibull_trace_is_reproducible_and_distinct(tiny_platform):
    model = FailureModel(kind="weibull", shape=0.7)
    a = generate_failure_trace(tiny_platform, 30 * DAY, np.random.default_rng(5), model=model)
    b = generate_failure_trace(tiny_platform, 30 * DAY, np.random.default_rng(5), model=model)
    exp = generate_failure_trace(tiny_platform, 30 * DAY, np.random.default_rng(5))
    assert list(a) == list(b)
    assert [e.time for e in a] != [e.time for e in exp]


@pytest.mark.parametrize("shape", [0.5, 0.7, 1.5, 3.0])
def test_weibull_gaps_preserve_the_platform_mtbf(tiny_platform, shape):
    """Whatever the shape, the mean inter-arrival equals the system MTBF."""
    model = FailureModel(kind="weibull", shape=shape)
    horizon = 3000.0 * tiny_platform.system_mtbf_s
    trace = generate_failure_trace(
        tiny_platform, horizon, np.random.default_rng(11), model=model
    )
    assert horizon / len(trace) == pytest.approx(tiny_platform.system_mtbf_s, rel=0.1)


def test_weibull_small_shape_is_burstier(tiny_platform):
    """k < 1 produces more dispersed gaps (higher coefficient of variation)."""
    horizon = 2000.0 * tiny_platform.system_mtbf_s
    bursty = generate_failure_trace(
        tiny_platform,
        horizon,
        np.random.default_rng(3),
        model=FailureModel(kind="weibull", shape=0.5),
    )
    regular = generate_failure_trace(
        tiny_platform,
        horizon,
        np.random.default_rng(3),
        model=FailureModel(kind="weibull", shape=3.0),
    )

    def gap_cv(trace):
        gaps = np.diff([0.0, *(e.time for e in trace)])
        return gaps.std() / gaps.mean()

    assert gap_cv(bursty) > gap_cv(regular)


# ------------------------------------------------------------- config threading
def test_config_normalises_default_model_to_none(tiny_config):
    assert tiny_config(failure_model=FailureModel()).failure_model is None
    weibull = FailureModel(kind="weibull", shape=0.7)
    assert tiny_config(failure_model=weibull).failure_model == weibull


def test_config_rejects_non_failure_model(tiny_config):
    with pytest.raises(ConfigurationError):
        tiny_config(failure_model="weibull")


def test_failure_model_changes_the_config_digest(tiny_config):
    base = tiny_config()
    explicit_default = tiny_config(failure_model=FailureModel())
    weibull = tiny_config(failure_model=FailureModel(kind="weibull", shape=0.7))
    other_shape = tiny_config(failure_model=FailureModel(kind="weibull", shape=1.5))
    # Default exponential (None or explicit) shares one digest; shaped
    # models each get their own.
    assert config_digest(base) == config_digest(explicit_default)
    assert config_digest(base) != config_digest(weibull)
    assert config_digest(weibull) != config_digest(other_shape)


def test_simulation_uses_the_configured_failure_model(tiny_config):
    from repro.simulation.simulator import Simulation

    base = tiny_config(horizon_s=10 * DAY, seed=7)
    shaped = tiny_config(
        horizon_s=10 * DAY,
        seed=7,
        failure_model=FailureModel(kind="weibull", shape=0.5),
    )
    exp_trace = Simulation(base).failure_trace
    weibull_trace = Simulation(shaped).failure_trace
    assert [e.time for e in exp_trace] != [e.time for e in weibull_trace]
    # Same seed and model: identical initial conditions.
    again = Simulation(shaped).failure_trace
    assert list(weibull_trace) == list(again)
