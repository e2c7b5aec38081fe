"""Checkpoint period policies (repro.apps.checkpoint_policy)."""

from __future__ import annotations

import math

import pytest

from repro.apps.checkpoint_policy import DalyPolicy, FixedPolicy
from repro.errors import ConfigurationError
from repro.iosched.registry import make_strategy
from repro.units import HOUR


def test_fixed_policy_returns_constant_period(tiny_platform, tiny_classes):
    policy = FixedPolicy(period_s=2 * HOUR)
    for app in tiny_classes:
        assert policy.period(app, tiny_platform) == pytest.approx(2 * HOUR)


def test_fixed_policy_default_is_one_hour(tiny_platform, tiny_classes):
    assert FixedPolicy().period(tiny_classes[0], tiny_platform) == pytest.approx(HOUR)


def test_fixed_policy_rejects_non_positive_period():
    with pytest.raises(ConfigurationError):
        FixedPolicy(period_s=0.0)


def test_daly_policy_matches_formula(tiny_platform, tiny_classes):
    policy = DalyPolicy()
    app = tiny_classes[0]
    commit = app.checkpoint_bytes / tiny_platform.io_bandwidth_bytes_per_s
    mtbf = tiny_platform.node_mtbf_s / app.nodes
    assert policy.period(app, tiny_platform) == pytest.approx(math.sqrt(2 * commit * mtbf))


def test_daly_policy_scales_with_platform(tiny_platform, tiny_classes):
    policy = DalyPolicy()
    app = tiny_classes[0]
    base = policy.period(app, tiny_platform)
    # Quadrupling the bandwidth halves the commit time -> period / sqrt(2)... no:
    # period scales as sqrt(C), so x4 bandwidth -> period / 2.
    faster = policy.period(app, tiny_platform.with_bandwidth(4 * tiny_platform.io_bandwidth_bytes_per_s))
    assert faster == pytest.approx(base / 2.0)
    # A 4x less reliable node MTBF also halves the period.
    fragile = policy.period(app, tiny_platform.with_node_mtbf(tiny_platform.node_mtbf_s / 4))
    assert fragile == pytest.approx(base / 2.0)


def test_daly_period_shorter_for_larger_jobs(tiny_platform, tiny_classes):
    alpha, beta = tiny_classes  # alpha uses more nodes and a bigger checkpoint
    policy = DalyPolicy()
    # More nodes -> smaller MTBF -> shorter period, all else equal; here the
    # checkpoint is larger too, so simply check both are positive and finite.
    pa = policy.period(alpha, tiny_platform)
    pb = policy.period(beta, tiny_platform)
    assert pa > 0 and pb > 0
    assert math.isfinite(pa) and math.isfinite(pb)


def test_the_policy_parameter_builds_the_policy():
    fixed = make_strategy("ordered[policy=FIXED]", fixed_period_s=120.0).policy
    assert fixed == FixedPolicy(120.0)
    assert isinstance(make_strategy("ordered[policy=daly]").policy, DalyPolicy)
    with pytest.raises(ConfigurationError, match="must be one of fixed, daly"):
        make_strategy("ordered[policy=unknown]")
