"""Scenario specification (repro.scenarios.spec)."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.platform.failures import FailureModel
from repro.scenarios.spec import Scenario
from repro.units import DAY, GB, YEAR


@pytest.fixture
def scenario(tiny_platform, tiny_classes) -> Scenario:
    return Scenario(
        name="base",
        platform=tiny_platform,
        workload=tiny_classes,
        strategies=("ordered-daly", "least-waste"),
        num_runs=2,
        horizon_days=0.5,
        warmup_days=0.05,
        cooldown_days=0.05,
    )


# ------------------------------------------------------------- validation
def test_scenario_validates_inputs(tiny_platform, tiny_classes):
    with pytest.raises(ConfigurationError):
        Scenario(name="", platform=tiny_platform, workload=tiny_classes)
    with pytest.raises(ConfigurationError):
        Scenario(name="x", platform=tiny_platform, workload=())
    with pytest.raises(ConfigurationError):
        Scenario(name="x", platform=tiny_platform, workload=tiny_classes, strategies=())
    with pytest.raises(ConfigurationError):
        Scenario(
            name="x", platform=tiny_platform, workload=tiny_classes, strategies=("bogus",)
        )
    with pytest.raises(ConfigurationError):
        Scenario(name="x", platform=tiny_platform, workload=tiny_classes, num_runs=0)
    with pytest.raises(ConfigurationError):
        Scenario(name="x", platform=tiny_platform, workload=tiny_classes, horizon_days=0.0)


def test_scenario_defaults_to_all_strategies(tiny_platform, tiny_classes):
    from repro.iosched.registry import STRATEGIES

    scenario = Scenario(name="x", platform=tiny_platform, workload=tiny_classes)
    assert scenario.strategies == STRATEGIES
    assert scenario.failure_model == FailureModel()


# ------------------------------------------------------------- configs
def test_config_carries_every_scenario_knob(scenario):
    config = scenario.config("least-waste")
    assert config.platform == scenario.platform
    assert config.classes == scenario.workload
    assert config.strategy == "least-waste"
    assert config.horizon_s == scenario.horizon_days * DAY
    assert config.seed == scenario.base_seed
    # Default exponential model normalises to None inside the config.
    assert config.failure_model is None


def test_config_rejects_unselected_strategy(scenario):
    with pytest.raises(ConfigurationError):
        scenario.config("oblivious-fixed")


def test_configs_cover_strategies_in_order(scenario):
    configs = scenario.configs()
    assert [c.strategy for c in configs] == list(scenario.strategies)


def test_weibull_scenario_reaches_the_config(scenario):
    shaped = scenario.apply(failure_model=FailureModel(kind="weibull", shape=0.7))
    config = shaped.config("least-waste")
    assert config.failure_model == FailureModel(kind="weibull", shape=0.7)


# ------------------------------------------------------------- overrides
def test_apply_platform_shorthands(scenario):
    derived = scenario.apply(
        "derived", bandwidth_gbs=4.0, node_mtbf_years=1.0, num_nodes=8
    )
    assert derived.name == "derived"
    assert derived.platform.io_bandwidth_bytes_per_s == 4.0 * GB
    assert derived.platform.node_mtbf_s == 1.0 * YEAR
    assert derived.platform.num_nodes == 8
    # The original is untouched (scenarios are immutable values).
    assert scenario.platform.num_nodes == 16


def test_apply_direct_field_overrides(scenario):
    derived = scenario.apply(num_runs=7, strategies=("least-waste",), horizon_days=1.0)
    assert derived.num_runs == 7
    assert derived.strategies == ("least-waste",)
    assert derived.horizon_days == 1.0
    assert derived.name == scenario.name  # name only changes when given


#: Every numeric key ``Scenario.apply`` accepts: the platform shorthands and
#: the numeric scenario fields.
NUMERIC_OVERRIDES = (
    "num_nodes",
    "bandwidth_gbs",
    "node_mtbf_years",
    "num_runs",
    "horizon_days",
    "warmup_days",
    "cooldown_days",
    "fixed_period_s",
)


@pytest.mark.parametrize("key", NUMERIC_OVERRIDES)
@pytest.mark.parametrize(
    "value", ["abc", float("nan"), float("inf"), float("-inf"), 1e400, "1e400"], ids=repr
)
def test_apply_refuses_unparsable_and_non_finite_numbers(scenario, key, value):
    with pytest.raises(ConfigurationError, match=key):
        scenario.apply(**{key: value})


def test_apply_refuses_fractional_node_counts(scenario):
    with pytest.raises(ConfigurationError, match="'num_nodes' must be a whole number"):
        scenario.apply(num_nodes=2.5)


def test_apply_parses_numeric_strings_and_whole_floats(scenario):
    for spelling in (8, 8.0, "8"):
        derived = scenario.apply(num_nodes=spelling)
        assert derived.platform.num_nodes == 8
        assert type(derived.platform.num_nodes) is int
    assert scenario.apply(bandwidth_gbs="4").platform.io_bandwidth_bytes_per_s == 4.0 * GB
    assert scenario.apply(node_mtbf_years=1).platform.node_mtbf_s == 1.0 * YEAR


def test_campaign_matrix_with_a_nan_point_is_refused():
    from repro.scenarios.campaign import Campaign

    campaign = Campaign.from_mapping(
        {
            "name": "nan",
            "base": "smoke",
            "axes": [{"name": "io", "key": "bandwidth_gbs", "values": [2.0, float("nan")]}],
        }
    )
    with pytest.raises(ConfigurationError, match="bandwidth_gbs"):
        campaign.scenarios()


def test_apply_workload_callable_sees_final_platform(scenario):
    seen: list[int] = []

    def rebuild(platform):
        seen.append(platform.num_nodes)
        return scenario.workload

    scenario.apply(num_nodes=8, workload=rebuild)
    assert seen == [8]


def test_apply_rejects_unknown_override(scenario):
    with pytest.raises(ConfigurationError) as excinfo:
        scenario.apply(bandwith_gbs=4.0)  # typo
    assert "bandwith_gbs" in str(excinfo.value)
    assert "bandwidth_gbs" in str(excinfo.value)  # valid keys are listed


def test_apply_accepts_name_as_keyword_override(scenario):
    """``name`` may arrive through an axis-point override dict; giving it
    both ways is ambiguous and rejected."""
    assert scenario.apply(name="kw").name == "kw"
    with pytest.raises(ConfigurationError):
        scenario.apply("positional", name="kw")


def test_apply_rejects_platform_replacement_mixed_with_shorthands(scenario, tiny_platform):
    """A full 'platform' override would silently swallow shorthand knobs
    applied in the same call, so the combination is an error."""
    with pytest.raises(ConfigurationError) as excinfo:
        scenario.apply(platform=tiny_platform, bandwidth_gbs=4.0)
    assert "bandwidth_gbs" in str(excinfo.value)
    # Each alone is fine.
    assert scenario.apply(platform=tiny_platform).platform == tiny_platform
    assert scenario.apply(bandwidth_gbs=4.0).platform.io_bandwidth_bytes_per_s == 4.0 * GB


# ------------------------------------------------------------- ergonomics
def test_scenario_is_picklable_and_hashable(scenario):
    assert pickle.loads(pickle.dumps(scenario)) == scenario
    assert hash(scenario) == hash(scenario.apply())


def test_describe_mentions_the_key_facts(scenario):
    text = scenario.describe()
    assert "base" in text
    assert "TestBox" in text
    assert "exponential" in text
