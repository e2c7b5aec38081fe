"""Campaign execution (repro.scenarios.runner) and its cache/backend contract.

The acceptance bar of the subsystem: a >= 2x2 matrix runs through
``ParallelRunner``, an immediate re-run is served entirely from the
result store (zero new simulations), and serial vs. process backends
render byte-identical campaign tables.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exec.runner import ParallelRunner
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.report import campaign_to_csv, render_campaign, render_campaign_details
from repro.scenarios.runner import CampaignRunner
from repro.scenarios.spec import Scenario
from repro.store import FilesystemStore


@pytest.fixture
def matrix(tiny_platform, tiny_classes) -> Campaign:
    """A 2x2 (bandwidth x MTBF) matrix on the toy platform; 16 tiny sims."""
    base = Scenario(
        name="toy",
        platform=tiny_platform,
        workload=tiny_classes,
        strategies=("ordered-daly", "least-waste"),
        num_runs=2,
        horizon_days=0.5,
        warmup_days=0.05,
        cooldown_days=0.05,
    )
    return Campaign(
        name="toy-matrix",
        base=base,
        axes=(
            Axis.from_values("io", "bandwidth_gbs", [0.5, 2.0]),
            Axis.from_values("mtbf", "node_mtbf_years", [0.05, 0.5]),
        ),
    )


def _cells(campaign: Campaign) -> int:
    return campaign.size() * len(campaign.base.strategies) * campaign.base.num_runs


# ------------------------------------------------------------------ running
def test_campaign_runs_every_cell_through_the_runner(matrix):
    runner = CampaignRunner()
    result = runner.run(matrix)
    assert runner.runner.stats.tasks_run == _cells(matrix)
    assert [o.scenario.name for o in result.outcomes] == [
        s.name for s in matrix.scenarios()
    ]
    for outcome in result.outcomes:
        assert set(outcome.summaries) == set(matrix.base.strategies)
        for summary in outcome.summaries.values():
            assert summary.n == matrix.base.num_runs
            assert 0.0 <= summary.mean <= 1.0


def test_result_lookup_helpers(matrix):
    result = CampaignRunner().run(matrix)
    name = result.outcomes[0].scenario.name
    outcome = result.outcome(name)
    assert result.summary(name, "least-waste") == outcome.summaries["least-waste"]
    assert outcome.best_strategy() in matrix.base.strategies
    with pytest.raises(ConfigurationError):
        result.outcome("nope")
    with pytest.raises(ConfigurationError):
        result.summary(name, "oblivious-fixed")


def test_detail_exposes_the_full_simulation_result(matrix):
    from repro.stats.montecarlo import derive_seeds

    runner = CampaignRunner()
    scenario = matrix.scenarios()[0]
    detail = runner.drill_down(scenario, "least-waste").result
    assert detail.strategy == "least-waste"
    assert 0.0 <= detail.waste_ratio <= 1.0
    # The drill-down replays the scenario's first derived seed exactly.
    values = runner.runner.map_seeds(
        scenario.config("least-waste"),
        derive_seeds(scenario.base_seed, scenario.num_runs),
    )
    assert detail.waste_ratio == values[0]


def test_detail_requires_a_concrete_base_seed(matrix):
    """With base_seed=None every derive_seeds call resolves fresh entropy,
    so a drill-down could not replay a repetition the table measured."""
    import dataclasses

    unseeded = dataclasses.replace(matrix.scenarios()[0], base_seed=None)
    with pytest.raises(ConfigurationError, match="base_seed=None"):
        CampaignRunner().drill_down(unseeded, "least-waste")


# ------------------------------------------------------------------- cache
def test_campaign_rerun_hits_the_cache_with_zero_new_simulations(matrix, tmp_path):
    first = CampaignRunner(runner=ParallelRunner(cache=FilesystemStore(tmp_path)))
    a = first.run(matrix)
    assert first.runner.stats.tasks_run == _cells(matrix)
    assert first.runner.stats.cache_hits == 0

    second = CampaignRunner(runner=ParallelRunner(cache=FilesystemStore(tmp_path)))
    b = second.run(matrix)
    assert second.runner.stats.tasks_run == 0  # zero new simulations
    assert second.runner.stats.cache_hits == _cells(matrix)
    assert render_campaign(a) == render_campaign(b)
    assert campaign_to_csv(a) == campaign_to_csv(b)


def test_growing_the_matrix_only_simulates_new_cells(matrix, tmp_path):
    CampaignRunner(runner=ParallelRunner(cache=FilesystemStore(tmp_path))).run(matrix)

    grown = Campaign(
        name=matrix.name,
        base=matrix.base,
        axes=(
            Axis.from_values("io", "bandwidth_gbs", [0.5, 2.0, 8.0]),  # one new point
            matrix.axes[1],
        ),
    )
    runner = CampaignRunner(runner=ParallelRunner(cache=FilesystemStore(tmp_path)))
    runner.run(grown)
    new_cells = 2 * len(matrix.base.strategies) * matrix.base.num_runs  # io=8 column
    assert runner.runner.stats.tasks_run == new_cells
    assert runner.runner.stats.cache_hits == _cells(matrix)


def test_corrupt_cache_entry_is_resimulated_and_rewritten(matrix, tmp_path):
    """A corrupt or truncated entry degrades to a miss mid-campaign: the cell
    is re-simulated, the entry rewritten, and the table is unchanged."""
    warm = CampaignRunner(runner=ParallelRunner(cache=FilesystemStore(tmp_path)))
    reference = warm.run(matrix)

    entries = sorted(tmp_path.glob("*/*/*/*.json"))
    assert len(entries) == _cells(matrix)
    entries[0].write_text('{"value": 0.12')  # truncated write
    entries[1].write_text('{"value": Infinity}')  # parses, but not a result
    entries[2].write_bytes(b"\x00\xff\x00garbage")  # binary garbage

    rerun = CampaignRunner(runner=ParallelRunner(cache=FilesystemStore(tmp_path)))
    result = rerun.run(matrix)
    assert rerun.runner.stats.tasks_run == 3  # only the corrupt cells
    assert render_campaign(result) == render_campaign(reference)

    # The corrupt entries were rewritten: a third pass is all hits again.
    final = CampaignRunner(runner=ParallelRunner(cache=FilesystemStore(tmp_path)))
    final.run(matrix)
    assert final.runner.stats.tasks_run == 0


# ------------------------------------------------- backend bit-identity
def test_serial_and_process_backends_render_identical_tables(matrix):
    serial = CampaignRunner(runner=ParallelRunner(backend="serial"))
    table_serial = serial.run(matrix)
    with ParallelRunner(backend="process", workers=2) as pool:
        table_process = CampaignRunner(runner=pool).run(matrix)
    assert render_campaign(table_serial) == render_campaign(table_process)
    assert render_campaign_details(table_serial) == render_campaign_details(table_process)
    assert campaign_to_csv(table_serial) == campaign_to_csv(table_process)


def test_a_campaign_is_one_backend_call(matrix):
    """Every cell of the campaign reaches the backend in one batch."""
    from repro.exec.runner import _BACKEND_FACTORIES, SerialBackend, register_backend

    batches = []

    class CountingBackend(SerialBackend):
        def run(self, batch):
            batches.append(len(batch.entries))
            return super().run(batch)

    register_backend("counting-test", CountingBackend)
    try:
        result = CampaignRunner(runner=ParallelRunner(backend="counting-test")).run(matrix)
    finally:
        del _BACKEND_FACTORIES["counting-test"]
    assert batches == [_cells(matrix)]
    assert campaign_to_csv(result) == campaign_to_csv(CampaignRunner().run(matrix))


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_an_interrupted_campaign_keeps_every_seed_it_reported(matrix, tmp_path, backend):
    """Each seed is stored before the progress event that counts it, so a
    campaign interrupted inside its second cell keeps every reported seed,
    and a re-run simulates only the others."""
    stop_after = matrix.base.num_runs + 1  # one seed into the second cell
    reported: dict[str, int] = {}

    def interrupt(event):
        reported[event.label] = event.completed
        if sum(reported.values()) >= stop_after:
            raise KeyboardInterrupt

    cache_dir = tmp_path / "cache"
    runner = ParallelRunner(
        backend=backend, workers=2, chunk_size=1, cache=FilesystemStore(cache_dir), progress=interrupt
    )
    with pytest.raises(KeyboardInterrupt):
        with CampaignRunner(runner=runner) as interrupted:
            interrupted.run(matrix)
    assert sum(reported.values()) == stop_after
    assert len(list(cache_dir.glob("*/*/*/*.json"))) == stop_after

    with CampaignRunner(
        runner=ParallelRunner(backend=backend, workers=2, cache=FilesystemStore(cache_dir))
    ) as rerun:
        result = rerun.run(matrix)
    assert rerun.runner.stats.cache_hits == stop_after
    assert rerun.runner.stats.tasks_run == _cells(matrix) - stop_after
    assert campaign_to_csv(result) == campaign_to_csv(CampaignRunner().run(matrix))


def test_axis_added_strategies_appear_in_the_table(matrix):
    """An axis that overrides ``strategies`` must not lose simulated cells:
    the table columns are the union of every scenario's strategy set."""
    widened = Campaign(
        name="widened",
        base=matrix.base,
        axes=(
            Axis(
                name="strat",
                points=(
                    AxisPoint("families", {"strategies": ("oblivious-daly", "least-waste")}),
                    AxisPoint("base", {}),
                ),
            ),
        ),
    )
    result = CampaignRunner().run(widened)
    assert result.strategies == ("ordered-daly", "least-waste", "oblivious-daly")
    table = render_campaign(result)
    assert "oblivious-daly" in table
    # The cell skipped by the base-strategy scenario renders as '-', while
    # the axis-added strategy's simulated cell is reported.
    assert result.summary("strat=families", "oblivious-daly").n == matrix.base.num_runs
    csv_text = campaign_to_csv(result)
    assert "oblivious-daly" in csv_text


# ------------------------------------------------------------- rendering
def test_render_campaign_marks_the_best_strategy(matrix):
    result = CampaignRunner().run(matrix)
    table = render_campaign(result)
    for outcome in result.outcomes:
        assert outcome.scenario.name in table
    assert table.count("*") >= len(result.outcomes)  # one winner per row


def test_campaign_csv_quotes_scenario_names(matrix):
    import csv
    import io

    result = CampaignRunner().run(matrix)
    rows = list(csv.reader(io.StringIO(campaign_to_csv(result))))
    header, data = rows[0], rows[1:]
    assert header[:5] == ["campaign", "scenario", "strategy", "spec", "best"]
    assert len(data) == matrix.size() * len(matrix.base.strategies)
    # Scenario names contain commas yet survive the round-trip intact.
    names = {row[1] for row in data}
    assert names == {s.name for s in matrix.scenarios()}
    # Exactly one winner per scenario.
    for scenario in matrix.scenarios():
        winners = [row for row in data if row[1] == scenario.name and row[4] == "1"]
        assert len(winners) == 1


def test_campaign_runner_context_manager_closes_the_backend(matrix):
    with CampaignRunner(runner=ParallelRunner(backend="process", workers=2)) as runner:
        runner.run(matrix)
        assert runner.runner._backend_impl is not None
    assert runner.runner._backend_impl is None  # pool shut down on exit
    runner.close()  # idempotent


# ------------------------------------------------------ partial outcomes
def _partial_outcome(matrix, strategies=("least-waste",)):
    """An outcome summarising only a subset of the declared strategies,
    as an interrupted/resumed campaign produces."""
    from repro.scenarios.runner import ScenarioOutcome
    from repro.stats.summary import summarize

    scenario = matrix.scenarios()[0]
    return ScenarioOutcome(
        scenario=scenario,
        summaries={s: summarize([0.1, 0.2]) for s in strategies},
    )


def test_best_strategy_skips_strategies_missing_from_partial_summaries(matrix):
    """Regression: ``min`` over *declared* strategies raised ``KeyError`` when
    a summary was absent; the best must come from the present ones."""
    outcome = _partial_outcome(matrix, strategies=("least-waste",))
    assert set(outcome.scenario.strategies) == {"ordered-daly", "least-waste"}
    assert outcome.best_strategy() == "least-waste"  # no KeyError


def test_best_strategy_of_an_empty_outcome_is_none(matrix):
    assert _partial_outcome(matrix, strategies=()).best_strategy() is None


def test_best_strategy_ties_resolve_in_declaration_order(matrix):
    outcome = _partial_outcome(matrix, strategies=("least-waste", "ordered-daly"))
    # Identical means: the earlier *declared* strategy wins.
    assert outcome.best_strategy() == "ordered-daly"


def test_renderers_handle_partial_and_empty_outcomes(matrix):
    """A partial/resumed campaign must render ('-' cells), not crash."""
    from repro.scenarios.runner import CampaignResult

    result = CampaignResult(
        campaign="partial",
        strategies=tuple(matrix.base.strategies),
        outcomes=[
            _partial_outcome(matrix, strategies=("least-waste",)),
            _partial_outcome(matrix, strategies=()),
        ],
    )
    table = render_campaign(result)
    assert "-" in table  # the missing cells
    assert "*" in table  # the present cell still gets its winner
    details = render_campaign_details(result)
    assert "least-waste" in details
    rows = campaign_to_csv(result).splitlines()
    assert len(rows) == 2  # header + the one populated cell


def test_campaign_csv_degrades_unregistered_strategy_kinds_to_their_spec(matrix):
    """Regression: exporting a campaign that ran a custom strategy kind must
    not require the kind's registering module in the reporting process."""
    import csv
    import io

    from repro.scenarios.runner import CampaignResult, ScenarioOutcome
    from repro.stats.summary import summarize

    spec = "myplugin[gain=2]"  # never registered in this process
    outcome = ScenarioOutcome(
        scenario=matrix.scenarios()[0],
        summaries={spec: summarize([0.3, 0.4])},
    )
    result = CampaignResult(campaign="plugin", strategies=(spec,), outcomes=[outcome])
    rows = list(csv.reader(io.StringIO(campaign_to_csv(result))))
    assert rows[1][2] == spec
    assert rows[1][3] == spec  # resolved spec degrades to the canonical string
    assert rows[1][4] == "1"  # it is still the row's winner
