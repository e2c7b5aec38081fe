"""Campaign execution on top of the parallel experiment runner.

:func:`run_campaign` expands a campaign's scenario matrix into its
(scenario, strategy) cells and evaluates all of them with **one**
:meth:`repro.exec.runner.ParallelRunner.run_configs` call, through
:func:`run_scenarios`.  A process pool or a spool worker fleet therefore
gets the whole campaign at once and runs its cells side by side; the
serial backend runs cells in campaign order and seeds in seed order.
Each :class:`ScenarioOutcome` keeps the seeds the scenario ran and every
cell's per-seed values, so the statistics, the winner and any drill-down
are read from what was measured, never re-derived.

Campaigns inherit the execution subsystem wholesale: every registered
backend (serial, process pool, distributed spool) returns bit-identical
tables, and an attached result store (:mod:`repro.store`) means an
immediate re-run (or a grown matrix) only simulates cells it has never
seen.  That same cache property makes campaigns resumable: the runner
stores every seed before it reports it, so an interrupted run (Ctrl-C, a
lost spool submitter) picks up where it left off — finished seeds replay
from the cache, and with the ``"spool"`` backend in-flight tasks keep
their content-addressed spool entries.  The caller owns the runner and
closes it (``with ParallelRunner(...) as runner:``).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.exec.runner import ParallelRunner
from repro.scenarios.campaign import Campaign
from repro.scenarios.spec import Scenario
from repro.stats.montecarlo import derive_seed, derive_seeds
from repro.stats.summary import DistributionSummary, summarize

if TYPE_CHECKING:
    from repro.store.base import ResultStore
    from repro.trace.decompose import WasteDecomposition

__all__ = ["CampaignResult", "ScenarioOutcome", "drill_down", "run_campaign", "run_scenarios"]


@dataclass(frozen=True)
class ScenarioOutcome:
    """Every strategy's measured waste ratios on one scenario.

    ``seeds`` are the scenario's derived seeds, in order; every strategy saw
    the same seeds, hence identical initial conditions.  ``values[strategy]``
    holds one waste ratio per seed, in seed order, for each strategy the
    scenario declares, in declaration order.  ``summaries[strategy]`` is the
    distribution summary of ``values[strategy]``, computed once on
    construction.
    """

    scenario: Scenario
    seeds: tuple[int, ...]
    values: dict[str, tuple[float, ...]]
    summaries: dict[str, DistributionSummary] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if tuple(self.values) != self.scenario.strategies or any(
            len(values) != len(self.seeds) for values in self.values.values()
        ):
            raise ConfigurationError(
                f"outcome of scenario {self.scenario.name!r} needs {len(self.seeds)} "
                f"value(s) for each of {', '.join(self.scenario.strategies)}, in that order"
            )
        summaries = {strategy: summarize(values) for strategy, values in self.values.items()}
        object.__setattr__(self, "summaries", summaries)

    def best_strategy(self) -> str:
        """Strategy with the lowest mean waste ratio (ties go to the earlier
        declaration)."""
        return min(self.scenario.strategies, key=lambda s: self.summaries[s].mean)


@dataclass
class CampaignResult:
    """Outcome of one campaign run.

    Attributes
    ----------
    campaign:
        Name of the executed campaign.
    strategies:
        Every strategy evaluated by at least one scenario, base-scenario
        order first, then axis-added strategies in appearance order (the
        columns of the comparison table; scenarios that skip a column
        render as ``-``).
    outcomes:
        One :class:`ScenarioOutcome` per scenario, in expansion order (the
        rows of the comparison table).
    """

    campaign: str
    strategies: tuple[str, ...]
    outcomes: list[ScenarioOutcome] = field(default_factory=list)


def run_campaign(campaign: Campaign, runner: ParallelRunner | None = None) -> CampaignResult:
    """Evaluate every (scenario, strategy) cell of ``campaign`` in one dispatch.

    ``runner`` (its backend and result store) is shared by every cell; the
    default is a fresh serial, uncached runner.
    """
    scenarios = campaign.scenarios()
    # Table columns: the union of all evaluated strategies, so an axis that
    # overrides ``strategies`` never drops simulated cells from the report.
    # Base order first, axis-added strategies as encountered.
    columns = list(campaign.base.strategies)
    for scenario in scenarios:
        for strategy in scenario.strategies:
            if strategy not in columns:
                columns.append(strategy)
    return CampaignResult(
        campaign=campaign.name,
        strategies=tuple(columns),
        outcomes=run_scenarios(scenarios, runner),
    )


def run_scenarios(
    scenarios: Sequence[Scenario], runner: ParallelRunner | None = None
) -> list[ScenarioOutcome]:
    """Every (scenario, strategy) cell of ``scenarios`` in one dispatch.

    Each scenario's seeds are derived once, here, and every strategy of the
    scenario runs on them.
    """
    runner = runner if runner is not None else ParallelRunner()
    seeds = [tuple(derive_seeds(s.base_seed, s.num_runs)) for s in scenarios]
    cells = [
        (scenario.config(strategy), scenario_seeds, f"{scenario.name}/{strategy}")
        for scenario, scenario_seeds in zip(scenarios, seeds)
        for strategy in scenario.strategies
    ]
    values = iter(runner.run_configs(cells))
    return [
        ScenarioOutcome(
            scenario=scenario,
            seeds=scenario_seeds,
            values={strategy: tuple(next(values)) for strategy in scenario.strategies},
        )
        for scenario, scenario_seeds in zip(scenarios, seeds)
    ]


def drill_down(
    scenario: Scenario, strategy: str, rep: int = 0, *, cache: ResultStore | None = None
) -> "WasteDecomposition":
    """Waste decomposition of one campaign cell ``(scenario, strategy, seed)``.

    ``rep`` selects the repetition (0-based index into the scenario's
    derived seeds — the same seeds every strategy of the scenario saw).
    The cell is re-run with trace capture enabled, on every call, and
    the returned :class:`~repro.trace.decompose.WasteDecomposition`
    holds the run's full :class:`~repro.simulation.results.SimulationResult`,
    whose waste ratio is repr-exactly the cell's recorded value, and
    the value ``cache`` held for the cell before the drill.

    Requires a concrete ``base_seed``: with ``None`` every seed derivation
    resolves fresh entropy, so the re-simulated repetition would not be one
    a campaign measured.  A :class:`ScenarioOutcome` keeps the seeds it
    ran; drill one of those with :func:`repro.trace.drill_down_cell`.
    """
    from repro.trace.drilldown import drill_down_cell

    if scenario.base_seed is None:
        raise ConfigurationError(
            f"scenario {scenario.name!r} has base_seed=None; a drill-down "
            "needs a concrete base seed to address a repetition the "
            "campaign actually measured"
        )
    if not 0 <= rep < scenario.num_runs:
        raise ConfigurationError(
            f"repetition {rep} out of range: scenario {scenario.name!r} "
            f"runs {scenario.num_runs} repetition(s) (0..{scenario.num_runs - 1})"
        )
    config = scenario.config(strategy)  # validates the strategy too
    seed = derive_seed(scenario.base_seed, rep)
    return drill_down_cell(config, seed, cache=cache, scenario=scenario.name)
