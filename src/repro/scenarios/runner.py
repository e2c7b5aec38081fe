"""Campaign execution on top of the parallel experiment runner.

:class:`CampaignRunner` expands a campaign's scenario matrix into its
(scenario, strategy) cells and evaluates all of them with **one**
:meth:`repro.exec.runner.ParallelRunner.run_configs` call, then reduces
the values per cell.  A process pool or a spool worker fleet therefore
gets the whole campaign at once and runs its cells side by side; the
serial backend runs cells in campaign order and seeds in seed order.
Campaigns inherit the execution subsystem wholesale: every registered
backend (serial, process pool, distributed spool) returns bit-identical
tables, and an attached result store (:mod:`repro.store`) means an
immediate re-run (or a grown matrix) only simulates cells it has never
seen.  That same cache property makes campaigns resumable: the runner
stores every seed before it reports it, so an interrupted run (Ctrl-C, a
lost spool submitter) picks up where it left off — finished seeds replay
from the cache, and with the ``"spool"`` backend in-flight tasks keep
their content-addressed spool entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.exec.runner import ParallelRunner
from repro.scenarios.campaign import Campaign
from repro.scenarios.spec import Scenario
from repro.stats.montecarlo import derive_seed, derive_seeds
from repro.stats.summary import DistributionSummary, summarize

if TYPE_CHECKING:
    from repro.trace.decompose import WasteDecomposition

__all__ = ["CampaignResult", "CampaignRunner", "ScenarioOutcome"]


@dataclass(frozen=True)
class ScenarioOutcome:
    """All strategy summaries of one scenario.

    ``summaries[strategy]`` is the waste-ratio distribution of ``strategy``
    over the scenario's Monte-Carlo repetitions; every strategy saw the
    same derived seeds, hence identical initial conditions.
    """

    scenario: Scenario
    summaries: dict[str, DistributionSummary]

    def best_strategy(self) -> str | None:
        """Strategy with the lowest mean waste ratio among *present* summaries.

        A partially populated outcome (an interrupted or resumed campaign, or
        a hand-assembled result) may summarise only a subset of the
        scenario's declared strategies — candidates are therefore the
        summaries actually present, ranked in declaration order (ties go to
        the earlier declaration; summaries for undeclared strategies follow
        in insertion order).  Returns ``None`` for an empty outcome, which
        the renderers show as a row with no winner instead of crashing.
        """
        candidates = [s for s in self.scenario.strategies if s in self.summaries]
        candidates += [s for s in self.summaries if s not in candidates]
        if not candidates:
            return None
        return min(candidates, key=lambda s: self.summaries[s].mean)


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

    def outcome(self, scenario_name: str) -> ScenarioOutcome:
        """Outcome of the scenario named ``scenario_name``."""
        for outcome in self.outcomes:
            if outcome.scenario.name == scenario_name:
                return outcome
        known = ", ".join(o.scenario.name for o in self.outcomes)
        raise ConfigurationError(
            f"no scenario named {scenario_name!r} in campaign {self.campaign!r}; "
            f"known scenarios: {known}"
        )

    def summary(self, scenario_name: str, strategy: str) -> DistributionSummary:
        """Waste-ratio summary of one (scenario, strategy) cell."""
        outcome = self.outcome(scenario_name)
        if strategy not in outcome.summaries:
            raise ConfigurationError(
                f"scenario {scenario_name!r} did not evaluate strategy {strategy!r}"
            )
        return outcome.summaries[strategy]


@dataclass
class CampaignRunner:
    """Executes campaigns through a shared :class:`ParallelRunner`.

    The runner (its worker pool and result cache included) is shared by
    every cell of every campaign this instance runs, so a campaign re-run
    against the same cache directory performs zero new simulations.  Each
    :meth:`run` makes one dispatch for the whole campaign;
    :meth:`run_scenario` is the one-scenario case.
    """

    runner: ParallelRunner = field(default_factory=ParallelRunner)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut the underlying execution backend down (worker pools included).

        Idempotent; the context-manager form guarantees no orphaned worker
        processes when a campaign raises or is interrupted mid-run.
        """
        self.runner.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def run(self, campaign: Campaign) -> CampaignResult:
        """Evaluate every (scenario, strategy) cell of ``campaign``."""
        scenarios = campaign.scenarios()
        # Table columns: the union of all evaluated strategies, so an axis
        # that overrides ``strategies`` never drops simulated cells from the
        # report.  Base order first, axis-added strategies as encountered.
        columns = list(campaign.base.strategies)
        for scenario in scenarios:
            for strategy in scenario.strategies:
                if strategy not in columns:
                    columns.append(strategy)
        return CampaignResult(
            campaign=campaign.name,
            strategies=tuple(columns),
            outcomes=self._run_scenarios(scenarios),
        )

    def run_scenario(self, scenario: Scenario) -> ScenarioOutcome:
        """Evaluate one scenario: every strategy over the scenario's seeds."""
        (outcome,) = self._run_scenarios([scenario])
        return outcome

    def _run_scenarios(self, scenarios: list[Scenario]) -> list[ScenarioOutcome]:
        """Every (scenario, strategy) cell in one dispatch, reduced per cell."""
        cells = []
        for scenario in scenarios:
            seeds = derive_seeds(scenario.base_seed, scenario.num_runs)
            for strategy in scenario.strategies:
                cells.append((scenario.config(strategy), seeds, f"{scenario.name}/{strategy}"))
        values = iter(self.runner.run_configs(cells))
        return [
            ScenarioOutcome(
                scenario=scenario,
                summaries={strategy: summarize(next(values)) for strategy in scenario.strategies},
            )
            for scenario in scenarios
        ]

    def drill_down(
        self, scenario: Scenario, strategy: str, rep: int = 0
    ) -> "WasteDecomposition":
        """Waste decomposition of one campaign cell ``(scenario, strategy, seed)``.

        ``rep`` selects the repetition (0-based index into the scenario's
        derived seeds — the same seeds every strategy of the scenario saw).
        The cell is re-run with trace capture enabled, on every call, and
        the returned :class:`~repro.trace.decompose.WasteDecomposition`
        holds the run's full :class:`~repro.simulation.results.SimulationResult`,
        whose waste ratio is repr-exactly the cell's recorded value, and
        the value the runner's store held for the cell before the drill.

        Requires a concrete ``base_seed``: with ``None`` every
        ``derive_seeds`` call resolves fresh entropy, so the re-simulated
        repetition would not be one the campaign actually measured.
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
        return drill_down_cell(config, seed, cache=self.runner.cache, scenario=scenario.name)
