"""Golden-value regression pins for the simulator.

These tests pin exact small-sample summary statistics on the miniature
Cielo configuration for all seven legacy strategies (the four Daly-period
families and the three fixed-period variants), for two strategies under
bursty Weibull failures and for one parameterized strategy spec, and for
two strategies on the prospective 50 000-node platform, where the node
pool's cost matters.  Whole 12-seed summaries, every field, pin two
strategies under three interference models, and one sha256 per run of
``repr(SimulationResult)`` pins every field of every run of nine strategies
under two failure models and three interference models
(``tests/golden/simulation-results.json``).  They exist to make silent
behaviour drift impossible: any refactor that changes a simulated result
— event ordering, accounting, RNG consumption, scheduling decisions,
summary statistics — fails here.

If a change is *intentional* (a bug fix, a model change), do three things
in the same commit:

1. bump ``repro.exec.digest.DIGEST_VERSION`` (cached results on disk are
   stale the moment results change),
2. regenerate the pinned values below (``print_golden`` prints them) and
   the whole-result pins (``write_result_pins`` rewrites their file),
3. say so in the commit message.

``EXPECTED_DIGEST_VERSION`` ties 1 and 2 together: forgetting the bump
fails the suite even if the goldens were regenerated.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import astuple, replace
from pathlib import Path

import pytest

from repro.exec.digest import DIGEST_VERSION
from repro.iosched.registry import STRATEGIES
from repro.platform.failures import FailureModel
from repro.platform.interference import CappedConcurrencyInterference, DegradingInterference
from repro.scenarios.presets import FAMILY_STRATEGIES, mini_apex_workload, mini_cielo_platform
from repro.scenarios.runner import run_scenarios
from repro.scenarios.spec import Scenario
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulation
from repro.stats.montecarlo import derive_seeds
from repro.workloads.prospective import prospective_platform, prospective_workload

#: The digest version these goldens were generated under.  If you changed
#: simulator behaviour on purpose: bump DIGEST_VERSION, regenerate the
#: GOLDEN_* values (see module docstring) and update this pin.
EXPECTED_DIGEST_VERSION = "2"

#: (mean, min, max) of the waste ratio per strategy; 3 seeds, base_seed 2018,
#: miniature Cielo, 12-hour horizon.  Regenerate with:
#:   PYTHONPATH=src python -c "import tests.test_golden_regression as g; g.print_golden()"
GOLDEN_WASTE = {
    "oblivious-daly": (0.13058508725313633, 0.0649079914192458, 0.24271995638571534),
    "ordered-daly": (0.12775522921726082, 0.06178770096567396, 0.23902348856709577),
    "orderednb-daly": (0.12260959233449209, 0.05683971747275822, 0.23902348856709577),
    "least-waste": (0.12125304185116953, 0.05664244107345878, 0.23741511915894367),
}

#: The fixed-period variants on the same scenario (1-hour period).
GOLDEN_FIXED_WASTE = {
    "oblivious-fixed": (0.23116410180410907, 0.15027372273350098, 0.3889478452047527),
    "ordered-fixed": (0.21346511158518902, 0.13033514963774936, 0.35707688912828345),
    "orderednb-fixed": (0.19121348686145367, 0.11664063184096889, 0.3399555126697246),
}

#: The same scenario under Weibull failures (shape 0.7), 2 seeds.
GOLDEN_WEIBULL_WASTE = {
    "oblivious-daly": (0.09028372862766815, 0.08011464533829937, 0.10045281191703692),
    "least-waste": (0.07765697044194347, 0.05741243838588924, 0.09790150249799771),
}

#: One parameterized strategy spec on the same scenario, 3 seeds.
GOLDEN_SPEC_WASTE = {
    "ordered[policy=fixed,period_s=1800]": (
        0.41349630219230504, 0.2391513153876618, 0.7417765761265247,
    ),
}

#: (mean, min, max) of the waste ratio on the prospective platform (1 TB/s);
#: 2 seeds, base_seed 2018, 1-day horizon.  Regenerated by print_golden too.
GOLDEN_PROSPECTIVE_WASTE = {
    "oblivious-daly": (0.33005299145646183, 0.3122547890146066, 0.34785119389831703),
    "least-waste": (0.15788002244788257, 0.10659231046747801, 0.20916773442828712),
}

#: Every field of the waste ratio's DistributionSummary (n, mean, std, min,
#: d1, q1, median, q3, d9, max), repr-exact, on the golden scenario at 12
#: seeds: past the 8 values at which numpy's pairwise sum switches to
#: blocked sums.  Oblivious-Daly is pinned under each interference model of
#: INTERFERENCE_MODELS; Least-Waste admits one transfer at a time, so it is
#: pinned once and every model must reproduce it.
GOLDEN_SUMMARIES = {
    "oblivious-daly/linear": (
        12, 0.1065273391836274, 0.05247539828483845, 0.04326893264680174,
        0.054580363773409316, 0.0698533963485473, 0.09116479609359554,
        0.13068061904402903, 0.1525161753231234, 0.24271995638571534,
    ),
    "oblivious-daly/degrading": (
        12, 0.2080271255358741, 0.11729367751792844, 0.08004263141253382,
        0.09087462119689552, 0.13620644846040067, 0.1707234511814691,
        0.2558071345055337, 0.4031659253495473, 0.45992287112331426,
    ),
    "oblivious-daly/capped": (
        12, 0.11578479137372684, 0.05512080882283681, 0.04272514693981226,
        0.05786037807076575, 0.07250617555194266, 0.10911078051585518,
        0.14106794642285175, 0.18289690732352243, 0.24043346444428962,
    ),
    "least-waste": (
        12, 0.09765059666514503, 0.054148954904331595, 0.03280330431536729,
        0.04075507076935891, 0.06624566597430899, 0.07832888878917725,
        0.12253538865931131, 0.14211013473096928, 0.23741511915894367,
    ),
}

#: The interference models of GOLDEN_SUMMARIES (None is the paper's linear model).
INTERFERENCE_MODELS = {
    "linear": None,
    "degrading": DegradingInterference(alpha=1.0),
    "capped": CappedConcurrencyInterference(max_streams=2),
}


#: sha256 of ``repr(SimulationResult)`` per run of ``result_pin_runs()``,
#: with the DIGEST_VERSION they were made under.  Regenerate with:
#:   PYTHONPATH=src python -c "import tests.test_golden_regression as g; g.write_result_pins()"
RESULT_PINS = Path(__file__).parent / "golden" / "simulation-results.json"

#: The paper's seven names and two parameterized specs, each run under
#: every failure model of RESULT_PIN_FAILURES and interference model of
#: INTERFERENCE_MODELS on the golden scenario's seeds.
RESULT_PIN_STRATEGIES = (
    *STRATEGIES,
    "ordered[policy=fixed,period_s=1800]",
    "least-waste[mtbf_bias=2]",
)
RESULT_PIN_FAILURES = {
    "exponential": FailureModel(),
    "weibull0.7": FailureModel("weibull", 0.7),
}


def golden_scenario() -> Scenario:
    return Scenario(
        name="golden",
        platform=mini_cielo_platform(),
        workload=tuple(mini_apex_workload()),
        strategies=FAMILY_STRATEGIES,
        num_runs=3,
        base_seed=2018,
        horizon_days=0.5,
        warmup_days=0.0625,
        cooldown_days=0.0625,
    )


def golden_prospective_scenario() -> Scenario:
    platform = prospective_platform()
    return Scenario(
        name="golden-prospective",
        platform=platform,
        workload=tuple(prospective_workload(platform)),
        strategies=tuple(GOLDEN_PROSPECTIVE_WASTE),
        num_runs=2,
        base_seed=2018,
        horizon_days=1.0,
        warmup_days=0.25,
        cooldown_days=0.25,
    )


def observed_waste(scenario: Scenario) -> dict[str, tuple[float, float, float]]:
    (outcome,) = run_scenarios([scenario])
    return {
        strategy: (summary.mean, summary.minimum, summary.maximum)
        for strategy, summary in outcome.summaries.items()
    }


def observed_summaries() -> dict[str, dict[str, tuple]]:
    """Whole summaries per interference model, then per strategy."""
    observed = {}
    for name, model in INTERFERENCE_MODELS.items():
        scenario = replace(
            golden_scenario(),
            strategies=("oblivious-daly", "least-waste"),
            num_runs=12,
            interference=model,
        )
        (outcome,) = run_scenarios([scenario])
        observed[name] = {
            strategy: astuple(summary) for strategy, summary in outcome.summaries.items()
        }
    return observed


def golden_pins() -> dict[str, tuple[Scenario, dict]]:
    """Every pinned scenario with its goldens, keyed by the golden's name."""
    return {
        "GOLDEN_WASTE": (golden_scenario(), GOLDEN_WASTE),
        "GOLDEN_FIXED_WASTE": (
            replace(golden_scenario(), strategies=tuple(GOLDEN_FIXED_WASTE)),
            GOLDEN_FIXED_WASTE,
        ),
        "GOLDEN_WEIBULL_WASTE": (
            replace(
                golden_scenario(),
                strategies=tuple(GOLDEN_WEIBULL_WASTE),
                num_runs=2,
                failure_model=FailureModel("weibull", 0.7),
            ),
            GOLDEN_WEIBULL_WASTE,
        ),
        "GOLDEN_SPEC_WASTE": (
            replace(golden_scenario(), strategies=tuple(GOLDEN_SPEC_WASTE)),
            GOLDEN_SPEC_WASTE,
        ),
        "GOLDEN_PROSPECTIVE_WASTE": (golden_prospective_scenario(), GOLDEN_PROSPECTIVE_WASTE),
    }


def result_pin_runs() -> Iterator[tuple[str, SimulationConfig]]:
    """``("strategy/failures/interference/seed", config)`` of every pinned run."""
    base = replace(golden_scenario(), strategies=RESULT_PIN_STRATEGIES)
    seeds = derive_seeds(base.base_seed, base.num_runs)
    for strategy in base.strategies:
        for failures, failure_model in RESULT_PIN_FAILURES.items():
            for interference, model in INTERFERENCE_MODELS.items():
                scenario = replace(base, failure_model=failure_model, interference=model)
                config = scenario.config(strategy)
                for seed in seeds:
                    yield f"{strategy}/{failures}/{interference}/{seed}", config.with_seed(seed)


def result_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_result_pins() -> None:  # pragma: no cover - regeneration helper
    runs = {key: result_digest(repr(Simulation(config).run())) for key, config in result_pin_runs()}
    body = {"digest_version": DIGEST_VERSION, "runs": runs}
    RESULT_PINS.write_text(json.dumps(body, indent=1) + "\n", encoding="utf-8")


def print_golden() -> None:  # pragma: no cover - regeneration helper
    for name, (scenario, _) in golden_pins().items():
        print(f"{name}:")
        for strategy, (mean, low, high) in observed_waste(scenario).items():
            print(f'    "{strategy}": ({mean!r}, {low!r}, {high!r}),')
    observed = observed_summaries()
    print("GOLDEN_SUMMARIES:")
    for name in INTERFERENCE_MODELS:
        print(f'    "oblivious-daly/{name}": {observed[name]["oblivious-daly"]!r},')
    print(f'    "least-waste": {observed["linear"]["least-waste"]!r},')


def assert_matches_goldens(observed: dict, golden: dict) -> None:
    mismatches = {
        strategy: (observed[strategy], golden[strategy])
        for strategy in golden
        if observed[strategy] != golden[strategy]
    }
    assert not mismatches, (
        "simulated results drifted from the pinned goldens "
        "(intentional changes must bump DIGEST_VERSION and regenerate; "
        f"see module docstring): {mismatches}"
    )


def test_digest_version_matches_the_goldens():
    assert DIGEST_VERSION == EXPECTED_DIGEST_VERSION, (
        "DIGEST_VERSION changed without regenerating the golden values "
        "(or the goldens were regenerated without bumping DIGEST_VERSION); "
        "see the module docstring of test_golden_regression.py"
    )


def test_all_four_families_are_pinned():
    assert tuple(GOLDEN_WASTE) == FAMILY_STRATEGIES


def test_golden_waste_statistics_are_bit_exact():
    assert_matches_goldens(observed_waste(golden_scenario()), GOLDEN_WASTE)


def test_all_seven_legacy_strategies_are_pinned():
    assert sorted([*GOLDEN_WASTE, *GOLDEN_FIXED_WASTE]) == sorted(STRATEGIES)


@pytest.mark.parametrize(
    "name", ["GOLDEN_FIXED_WASTE", "GOLDEN_WEIBULL_WASTE", "GOLDEN_SPEC_WASTE"]
)
def test_golden_variant_waste_statistics_are_bit_exact(name):
    scenario, golden = golden_pins()[name]
    assert_matches_goldens(observed_waste(scenario), golden)


def test_golden_prospective_waste_statistics_are_bit_exact():
    assert_matches_goldens(
        observed_waste(golden_prospective_scenario()), GOLDEN_PROSPECTIVE_WASTE
    )


def test_whole_summaries_are_bit_exact_under_every_interference_model():
    observed = observed_summaries()
    for name in INTERFERENCE_MODELS:
        pinned = GOLDEN_SUMMARIES[f"oblivious-daly/{name}"]
        assert repr(observed[name]["oblivious-daly"]) == repr(pinned), name
        assert repr(observed[name]["least-waste"]) == repr(GOLDEN_SUMMARIES["least-waste"]), name


def test_every_field_of_every_result_is_pinned():
    """Every run of ``result_pin_runs()``, untraced and traced, hashes to its pin."""
    pins = json.loads(RESULT_PINS.read_text(encoding="utf-8"))
    assert pins["digest_version"] == EXPECTED_DIGEST_VERSION
    seen = []
    for key, config in result_pin_runs():
        seen.append(key)
        result = Simulation(config).run()
        text = repr(result)
        # Every pinned run has a job hit by a failure, so the pins hold the
        # failure and restart counters at non-zero values.
        assert result.jobs_failed >= 1, key
        traced = repr(Simulation(replace(config, collect_trace=True)).run())
        assert traced == text, f"{key}: collecting the trace changed the result"
        assert result_digest(text) == pins["runs"].get(key), (
            f"{key} drifted from its pin (intentional changes must bump "
            f"DIGEST_VERSION and regenerate; see module docstring): {text}"
        )
    assert sorted(seen) == sorted(pins["runs"])
    runs_per_cell = len(INTERFERENCE_MODELS) * golden_scenario().num_runs
    assert len(seen) == len(RESULT_PIN_STRATEGIES) * len(RESULT_PIN_FAILURES) * runs_per_cell


def test_goldens_preserve_the_papers_strategy_ranking():
    """On the reference scenario the paper's ordering holds: cooperative
    strategies beat oblivious checkpointing, and Least-Waste wins."""
    means = {strategy: mean for strategy, (mean, _, _) in GOLDEN_WASTE.items()}
    assert means["least-waste"] < means["orderednb-daly"]
    assert means["orderednb-daly"] < means["ordered-daly"]
    assert means["ordered-daly"] < means["oblivious-daly"]
