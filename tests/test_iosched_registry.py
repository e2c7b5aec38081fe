"""Strategy registry (repro.iosched.registry)."""

from __future__ import annotations

import pytest

from repro.apps.checkpoint_policy import DalyPolicy, FixedPolicy
from repro.errors import ConfigurationError
from repro.iosched.least_waste import LeastWasteScheduler
from repro.iosched.oblivious import ObliviousScheduler
from repro.iosched.ordered import OrderedScheduler
from repro.iosched.ordered_nb import OrderedNBScheduler
from repro.iosched.registry import STRATEGIES, StrategySpec, make_strategy
from repro.platform.io_subsystem import IOSubsystem
from repro.sim.engine import SimulationEngine


def test_the_seven_paper_strategies_are_registered():
    assert len(STRATEGIES) == 7
    assert "least-waste" in STRATEGIES
    assert "oblivious-fixed" in STRATEGIES
    assert "orderednb-daly" in STRATEGIES


@pytest.mark.parametrize(
    ("name", "scheduler_cls", "policy_cls"),
    [
        ("oblivious-fixed", ObliviousScheduler, FixedPolicy),
        ("oblivious-daly", ObliviousScheduler, DalyPolicy),
        ("ordered-fixed", OrderedScheduler, FixedPolicy),
        ("ordered-daly", OrderedScheduler, DalyPolicy),
        ("orderednb-fixed", OrderedNBScheduler, FixedPolicy),
        ("orderednb-daly", OrderedNBScheduler, DalyPolicy),
        ("least-waste", LeastWasteScheduler, DalyPolicy),
    ],
)
def test_strategy_composition(name, scheduler_cls, policy_cls):
    strategy = make_strategy(name)
    assert strategy.name == name
    assert strategy.scheduler_cls is scheduler_cls
    assert isinstance(strategy.policy, policy_cls)


def test_make_strategy_is_case_insensitive_and_validates():
    assert make_strategy("Least-Waste").name == "least-waste"
    with pytest.raises(ConfigurationError):
        make_strategy("round-robin")


def test_make_strategy_error_lists_every_valid_name():
    with pytest.raises(ConfigurationError) as excinfo:
        make_strategy("round-robin")
    message = str(excinfo.value)
    assert "round-robin" in message
    for name in STRATEGIES:
        assert name in message


def test_make_strategy_suggests_close_matches():
    with pytest.raises(ConfigurationError) as excinfo:
        make_strategy("least-wast")  # typo
    assert "did you mean 'least-waste'?" in str(excinfo.value)
    with pytest.raises(ConfigurationError) as excinfo:
        make_strategy("ordered-dally")
    assert "did you mean 'ordered-daly'?" in str(excinfo.value)


@pytest.mark.parametrize("bad", [None, 3, ["least-waste"], b"least-waste"])
def test_make_strategy_rejects_non_string_names_with_config_error(bad):
    """Non-string input used to escape as AttributeError; it must surface as
    the library's ConfigurationError with the valid names listed."""
    with pytest.raises(ConfigurationError) as excinfo:
        make_strategy(bad)
    assert "least-waste" in str(excinfo.value)


def test_fixed_period_override_propagates():
    strategy = make_strategy("ordered-fixed", fixed_period_s=1800.0)
    assert isinstance(strategy.policy, FixedPolicy)
    assert strategy.policy.period_s == 1800.0


def test_make_scheduler_instantiates_against_engine_and_io():
    engine = SimulationEngine()
    io = IOSubsystem(engine, bandwidth_bytes_per_s=1e9)
    for name in STRATEGIES:
        scheduler = make_strategy(name).make_scheduler(engine, io, node_mtbf_s=1e6)
        assert scheduler.engine is engine
        assert scheduler.io is io
        assert scheduler.pending_requests() == ()
        assert scheduler.active_requests() == ()


# ------------------------------------------------------- parameterized specs
def test_spec_period_beats_the_fixed_period_argument():
    """An explicit period_s in the spec wins over the run-level fallback."""
    strategy = make_strategy("ordered[policy=fixed,period_s=900]", fixed_period_s=1800.0)
    assert isinstance(strategy.policy, FixedPolicy)
    assert strategy.policy.period_s == 900.0
    assert strategy.name == "ordered[policy=fixed,period_s=900]"


def test_spec_without_period_inherits_the_fixed_period_argument():
    strategy = make_strategy("ordered[policy=fixed]", fixed_period_s=1800.0)
    assert strategy.name == "ordered-fixed"  # canonical collapse
    assert strategy.policy.period_s == 1800.0


def test_least_waste_mtbf_bias_scales_the_scheduler_mtbf():
    engine = SimulationEngine()
    io = IOSubsystem(engine, bandwidth_bytes_per_s=1e9)
    plain = make_strategy("least-waste").make_scheduler(engine, io, node_mtbf_s=1e6)
    biased = make_strategy("least-waste[mtbf_bias=2]").make_scheduler(
        engine, io, node_mtbf_s=1e6
    )
    assert plain.node_mtbf_s == 1e6
    assert biased.node_mtbf_s == 2e6


def test_make_strategy_accepts_strategy_spec_objects():
    strategy = make_strategy(StrategySpec("orderednb", {"policy": "fixed"}))
    assert strategy.name == "orderednb-fixed"
    assert isinstance(strategy.policy, FixedPolicy)
