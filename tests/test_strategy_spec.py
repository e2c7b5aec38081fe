"""Parameterized strategy specs (repro.iosched.spec) and the open registry.

Three concerns live here:

* **Round-tripping** — ``parse -> format -> parse`` is the identity on the
  canonical form, under whitespace/case noise and hypothesis-generated
  parameter values.
* **Cache-key backward compatibility** — the seven legacy names must keep
  the exact digests and on-disk cache paths they had before the spec
  redesign (pinned below from the seed behaviour), with ``DIGEST_VERSION``
  still ``"2"``.
* **End-to-end openness** — a parameterized spec and a test-registered
  custom strategy both run through ``run_scenarios`` on the serial,
  process and spool backends with bit-identical results.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.checkpoint_policy import DalyPolicy, FixedPolicy
from repro.errors import ConfigurationError
from repro.exec.digest import DIGEST_VERSION, config_digest
from repro.exec.runner import ParallelRunner
from repro.iosched.ordered import OrderedScheduler
from repro.iosched.spec import kind_info
from repro.iosched.registry import (
    STRATEGIES,
    Strategy,
    StrategySpec,
    canonical_strategy,
    make_strategy,
    parse_strategy,
    register_strategy,
    resolved_strategy_spec,
    strategy_kinds,
)
from repro.scenarios.presets import mini_apex_workload, mini_cielo_platform
from repro.scenarios.runner import run_scenarios
from repro.scenarios.spec import Scenario
from repro.simulation.config import SimulationConfig
from repro.store import FilesystemStore
from repro.units import DAY


# ---------------------------------------------------------------- round-trip
@pytest.mark.parametrize(
    ("text", "canonical"),
    [
        ("ordered", "ordered-daly"),
        ("ordered[policy=daly]", "ordered-daly"),
        ("ordered[policy=fixed]", "ordered-fixed"),
        ("Ordered[Policy=FIXED]", "ordered-fixed"),
        ("  orderednb [ policy = fixed , period_s = 1800 ]  ".replace(" [", "["),
         "orderednb[policy=fixed,period_s=1800]"),
        ("ordered[period_s=1800.0,policy=fixed]", "ordered[policy=fixed,period_s=1800]"),
        ("least-waste", "least-waste"),
        ("least-waste[mtbf_bias=1]", "least-waste"),
        ("least-waste[mtbf_bias=2.5]", "least-waste[mtbf_bias=2.5]"),
        ("LEAST-WASTE[policy=fixed,period_s=900]", "least-waste[policy=fixed,period_s=900]"),
    ],
)
def test_canonicalisation(text, canonical):
    assert canonical_strategy(text) == canonical
    # The canonical form is a fixed point of parse -> format.
    assert canonical_strategy(canonical) == canonical


def test_parse_format_parse_is_identity_on_specs():
    for text in ("ordered[policy=fixed,period_s=123.456]", *STRATEGIES):
        spec = parse_strategy(text)
        assert parse_strategy(spec.canonical) == spec


def test_legacy_names_are_fixed_points():
    for name in STRATEGIES:
        assert canonical_strategy(name) == name
        assert canonical_strategy(name.upper()) == name
        assert canonical_strategy(f"  {name}  ") == name


@settings(max_examples=60, deadline=None)
@given(
    period=st.floats(min_value=1e-6, max_value=1e9, allow_nan=False, allow_infinity=False),
    bias=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
)
def test_roundtrip_of_hypothesis_generated_params(period, bias):
    spec = StrategySpec(
        "least-waste", (("policy", "fixed"), ("period_s", period), ("mtbf_bias", bias))
    )
    reparsed = parse_strategy(spec.canonical)
    # Formatting uses shortest-exact repr, so values survive bit-exactly.
    assert reparsed == spec
    assert reparsed.get("period_s") == period
    assert reparsed.get("mtbf_bias") == bias


def test_spec_params_accept_mapping_and_normalise_order():
    a = StrategySpec("ordered", {"period_s": 1800, "policy": "fixed"})
    b = StrategySpec("ordered", (("policy", "fixed"), ("period_s", 1800.0)))
    assert a == b
    assert a.canonical == "ordered[policy=fixed,period_s=1800]"


# ---------------------------------------------------------------- validation
@pytest.mark.parametrize(
    "bad",
    [
        "ordered[policy=fixed",          # missing closing bracket
        "ordered]policy=fixed[",         # stray bracket
        "ordered[policy]",               # missing =value
        "ordered[=fixed]",               # missing key
        "ordered[policy=fixed]x",        # trailing garbage
        "[policy=fixed]",                # missing kind
        "ordered[policy=fixed,policy=daly]",  # duplicate key
        "ordered[policy=sometimes]",     # outside choices
        "ordered[policy=fixed,period_s=abc]",  # not a float
        "ordered[policy=fixed,period_s=-5]",   # not positive
        "ordered[period_s=1800]",        # period without policy=fixed
        "round-robin",                   # unknown kind
    ],
)
def test_malformed_specs_raise_configuration_error(bad):
    with pytest.raises(ConfigurationError):
        parse_strategy(bad)


#: Pieces of the spec grammar: brackets, separators, every built-in kind and
#: legacy name, every parameter name and choice, and number spellings.
_SPEC_TOKENS = sorted(
    {"[", "]", "=", ",", " ", "-", "nan", "inf", "-inf", "1e400", "0", "-5", "2.5", "1800",
     "true", *STRATEGIES, *strategy_kinds()}
    | {
        str(token)
        for kind in strategy_kinds()
        for param in kind_info(kind).params
        for token in (param.name, *(param.choices or ()))
    }
)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_SPEC_TOKENS), st.text(max_size=3)), max_size=12))
def test_parse_strategy_parses_or_raises_configuration_error(pieces):
    """Any text parses to a spec that round-trips through its canonical
    form, or raises ConfigurationError; no other exception escapes."""
    try:
        spec = parse_strategy("".join(pieces))
    except ConfigurationError:
        return
    assert isinstance(spec, StrategySpec)
    assert parse_strategy(spec.canonical) == spec


def test_unknown_parameter_suggests_close_match():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_strategy("ordered[polcy=fixed]")
    assert "did you mean 'policy'?" in str(excinfo.value)


def test_simulation_config_and_registry_share_one_validator():
    """SimulationConfig no longer re-implements unknown-strategy errors: the
    message (did-you-mean included) is the registry's own."""
    platform = mini_cielo_platform()
    workload = tuple(mini_apex_workload(platform))
    with pytest.raises(ConfigurationError) as from_config:
        SimulationConfig(platform=platform, classes=workload, strategy="ordered-dally")
    with pytest.raises(ConfigurationError) as from_registry:
        make_strategy("ordered-dally")
    assert str(from_config.value) == str(from_registry.value)
    assert "did you mean 'ordered-daly'?" in str(from_config.value)


def test_scenario_normalises_and_prefixes_errors():
    platform = mini_cielo_platform()
    workload = tuple(mini_apex_workload(platform))
    scenario = Scenario(
        name="s", platform=platform, workload=workload,
        strategies=("Ordered[policy=fixed]", "least-waste"),
    )
    assert scenario.strategies == ("ordered-fixed", "least-waste")
    with pytest.raises(ConfigurationError, match="scenario 's'"):
        Scenario(name="s", platform=platform, workload=workload, strategies=("nope",))
    with pytest.raises(ConfigurationError, match="twice"):
        Scenario(
            name="s", platform=platform, workload=workload,
            strategies=("ordered-fixed", "ordered[policy=fixed]"),
        )


# ------------------------------------------------- cache-key backward compat
#: Config digests of the seven legacy strategies on the golden mini-Cielo
#: configuration, captured from the seed implementation (pre-StrategySpec).
#: The spec redesign must keep these byte-identical — a drift here silently
#: orphans every existing on-disk cache entry.
SEED_DIGESTS = {
    "oblivious-fixed": "ec4c84b7168ddd2683f7551514abd6634abf50d64a7c573d1a484e41242e8aa5",
    "oblivious-daly": "b0b803debb7817177763d4b967456742652ba818d91a05097eaabe12b47a8c53",
    "ordered-fixed": "681b01e3ab50a5018c54b7a3f306228e5d9f170c3595618c7791fe10446fe750",
    "ordered-daly": "a0e60c1ef496027575593ed2ad77b7bd887e5d2bfde4a8cab70f1953ba8e22ab",
    "orderednb-fixed": "6d8e2c5483bbd8d41e5f5cb908116f9393eb45bb12b4541d361a67a249fe66ff",
    "orderednb-daly": "aacf52ab74ca1c9778db7172a4239c63fa224f29b539a28115fbf07e819d9618",
    "least-waste": "9dbdeb51baf946e90d8609f612cbeebe91a57aa7df634e6cc673d9097e5102ae",
}


def _golden_config(strategy: str) -> SimulationConfig:
    platform = mini_cielo_platform()
    return SimulationConfig(
        platform=platform,
        classes=tuple(mini_apex_workload(platform)),
        strategy=strategy,
        horizon_s=0.5 * DAY,
        warmup_s=0.0625 * DAY,
        cooldown_s=0.0625 * DAY,
        seed=2018,
    )


def test_digest_version_is_unchanged_by_the_spec_redesign():
    assert DIGEST_VERSION == "2"


@pytest.mark.parametrize("name", sorted(SEED_DIGESTS))
def test_legacy_names_keep_seed_digests_and_cache_paths(name, tmp_path):
    config = _golden_config(name)
    digest = config_digest(config)
    assert digest == SEED_DIGESTS[name]
    # The full cache path (shard/digest/strategy/seed) is byte-identical too.
    cache = FilesystemStore(tmp_path)
    path = cache._entry_path(digest, config.strategy, 7)
    assert path.relative_to(cache.root).as_posix() == (
        f"{SEED_DIGESTS[name][:2]}/{SEED_DIGESTS[name]}/{name}/7.json"
    )


def test_legacy_spellings_share_the_legacy_digest():
    """`ordered[policy=fixed]` IS ordered-fixed, cache entries included."""
    assert config_digest(_golden_config("ordered[policy=fixed]")) == SEED_DIGESTS["ordered-fixed"]
    assert config_digest(_golden_config("Ordered-Fixed")) == SEED_DIGESTS["ordered-fixed"]


def test_parameterized_specs_get_their_own_digest():
    explicit = _golden_config("ordered[policy=fixed,period_s=1800]")
    assert explicit.strategy == "ordered[policy=fixed,period_s=1800]"
    assert config_digest(explicit) not in SEED_DIGESTS.values()


# ------------------------------------------------------------- end-to-end
class LifoScheduler(OrderedScheduler):
    """Test-only custom strategy: serve the *newest* pending request."""

    def _select_next(self, pending):
        return pending[-1]


def _lifo_factory(spec: StrategySpec, *, fixed_period_s: float) -> Strategy:
    return Strategy(
        name=spec.canonical,
        scheduler_cls=LifoScheduler,
        policy=DalyPolicy(),
        label="LIFO",
    )


# Registered at import so forked process-pool workers inherit it.
register_strategy(
    "lifo", _lifo_factory, description="test-only LIFO token", replace_existing=True
)


def test_registered_strategy_appears_in_kinds_and_builds():
    assert "lifo" in strategy_kinds()
    strategy = make_strategy("lifo")
    assert strategy.scheduler_cls is LifoScheduler
    assert canonical_strategy("LIFO") == "lifo"


def test_register_strategy_rejects_silent_overrides_and_bad_names():
    with pytest.raises(ConfigurationError, match="already registered"):
        register_strategy("lifo", _lifo_factory)
    with pytest.raises(ConfigurationError, match="already registered"):
        register_strategy("ordered-fixed", _lifo_factory)  # legacy alias shadowing
    with pytest.raises(ConfigurationError):
        register_strategy("bad kind", _lifo_factory)
    with pytest.raises(ConfigurationError):
        register_strategy("bad[kind]", _lifo_factory)


def _campaign_scenario() -> Scenario:
    platform = mini_cielo_platform()
    return Scenario(
        name="spec-e2e",
        platform=platform,
        workload=tuple(mini_apex_workload(platform)),
        strategies=("ordered[policy=fixed,period_s=1800]", "lifo"),
        num_runs=2,
        base_seed=42,
        horizon_days=0.25,
        warmup_days=0.03125,
        cooldown_days=0.03125,
    )


def test_parameterized_and_custom_strategies_run_on_all_backends(tmp_path, spool_workers):
    """Acceptance: the new specs flow end-to-end through every backend with
    bit-identical results (TaskSpecs carry the canonical string as JSON)."""
    scenario = _campaign_scenario()

    (reference,) = run_scenarios([scenario])

    with ParallelRunner(backend="process", workers=2) as process:
        (via_process,) = run_scenarios([scenario], process)
    assert via_process.summaries == reference.summaries

    spool_dir, cache_dir = tmp_path / "spool", tmp_path / "cache"
    with spool_workers(spool_dir, cache_dir, count=2):
        runner = ParallelRunner(
            backend="spool", spool_dir=spool_dir, cache=FilesystemStore(cache_dir),
            spool_poll_s=0.01, spool_timeout_s=120.0,
        )
        with runner:
            (via_spool,) = run_scenarios([scenario], runner)
    assert via_spool.summaries == reference.summaries

    # The parameterized cell cached under its canonical spec string.
    config = scenario.config("ordered[policy=fixed,period_s=1800]")
    cache = FilesystemStore(cache_dir)
    digest = config_digest(config)
    assert cache.probe(digest, config.strategy, _first_seed(scenario)) is not None


def _first_seed(scenario: Scenario) -> int:
    from repro.stats.montecarlo import derive_seeds

    return derive_seeds(scenario.base_seed, 1)[0]


def test_resolved_spec_distinguishes_period_variants():
    assert resolved_strategy_spec("ordered-fixed", fixed_period_s=1800.0) == (
        "ordered[policy=fixed,period_s=1800]"
    )
    assert resolved_strategy_spec("ordered-fixed", fixed_period_s=3600.0) == (
        "ordered[policy=fixed,period_s=3600]"
    )
    assert resolved_strategy_spec("ordered-daly") == "ordered[policy=daly]"
    assert resolved_strategy_spec("lifo") == "lifo[policy=daly]"


def test_non_finite_param_values_are_rejected():
    for bad in ("nan", "inf", "-inf", float("nan"), float("inf"), 10**400):
        with pytest.raises(ConfigurationError):
            parse_strategy(f"ordered[policy=fixed,period_s={bad}]")
        with pytest.raises(ConfigurationError):
            StrategySpec("least-waste", (("mtbf_bias", bad),))


def test_run_sweep_rejects_duplicate_strategies_after_normalisation():
    from repro.experiments.figure1 import Figure1Config, run_figure1

    config = Figure1Config(
        bandwidths_gbs=(40.0,),
        strategies=("ordered", "ordered-daly"),  # same strategy, two spellings
        num_runs=1,
        horizon_days=0.25,
    )
    with pytest.raises(ConfigurationError, match="twice"):
        run_figure1(config)
