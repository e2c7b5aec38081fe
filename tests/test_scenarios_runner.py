"""Campaign execution (repro.scenarios.runner) and its cache/backend contract.

The acceptance bar of the subsystem: a >= 2x2 matrix runs through
``ParallelRunner``, an immediate re-run is served entirely from the
result store (zero new simulations), serial vs. process backends
render byte-identical campaign tables, and every outcome keeps the seeds
and per-seed values its summaries come from.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.exec.runner import ParallelRunner
from repro.scenarios.campaign import Axis, AxisPoint, Campaign
from repro.scenarios.report import campaign_to_csv, render_campaign, render_campaign_details
from repro.scenarios.runner import CampaignResult, ScenarioOutcome, drill_down, run_campaign
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
    from repro.stats.montecarlo import derive_seeds
    from repro.stats.summary import summarize

    runner = ParallelRunner()
    result = run_campaign(matrix, runner)
    assert runner.stats.tasks_run == _cells(matrix)
    assert [o.scenario.name for o in result.outcomes] == [
        s.name for s in matrix.scenarios()
    ]
    for outcome in result.outcomes:
        scenario = outcome.scenario
        assert outcome.seeds == tuple(derive_seeds(scenario.base_seed, scenario.num_runs))
        assert tuple(outcome.values) == matrix.base.strategies
        for strategy, values in outcome.values.items():
            # One value per seed, in seed order; the summary is computed from them.
            assert values == tuple(
                runner.map_seeds(scenario.config(strategy), outcome.seeds)
            )
            assert outcome.summaries[strategy] == summarize(values)
            assert 0.0 <= outcome.summaries[strategy].mean <= 1.0


def test_detail_exposes_the_full_simulation_result(matrix):
    (outcome, *_) = run_campaign(matrix).outcomes
    detail = drill_down(outcome.scenario, "least-waste").result
    assert detail.strategy == "least-waste"
    assert 0.0 <= detail.waste_ratio <= 1.0
    # The drill-down replays the scenario's first derived seed exactly.
    assert detail.waste_ratio == outcome.values["least-waste"][0]


def test_detail_requires_a_concrete_base_seed(matrix):
    """With base_seed=None every derive_seeds call resolves fresh entropy,
    so a drill-down could not replay a repetition the table measured."""
    import dataclasses

    unseeded = dataclasses.replace(matrix.scenarios()[0], base_seed=None)
    with pytest.raises(ConfigurationError, match="base_seed=None"):
        drill_down(unseeded, "least-waste")


# ------------------------------------------------------------------- cache
def test_campaign_rerun_hits_the_cache_with_zero_new_simulations(matrix, tmp_path):
    first = ParallelRunner(cache=FilesystemStore(tmp_path))
    a = run_campaign(matrix, first)
    assert first.stats.tasks_run == _cells(matrix)
    assert first.stats.cache_hits == 0

    second = ParallelRunner(cache=FilesystemStore(tmp_path))
    b = run_campaign(matrix, second)
    assert second.stats.tasks_run == 0  # zero new simulations
    assert second.stats.cache_hits == _cells(matrix)
    assert render_campaign(a) == render_campaign(b)
    assert campaign_to_csv(a) == campaign_to_csv(b)


def test_growing_the_matrix_only_simulates_new_cells(matrix, tmp_path):
    run_campaign(matrix, ParallelRunner(cache=FilesystemStore(tmp_path)))

    grown = Campaign(
        name=matrix.name,
        base=matrix.base,
        axes=(
            Axis.from_values("io", "bandwidth_gbs", [0.5, 2.0, 8.0]),  # one new point
            matrix.axes[1],
        ),
    )
    runner = ParallelRunner(cache=FilesystemStore(tmp_path))
    run_campaign(grown, runner)
    new_cells = 2 * len(matrix.base.strategies) * matrix.base.num_runs  # io=8 column
    assert runner.stats.tasks_run == new_cells
    assert runner.stats.cache_hits == _cells(matrix)


def test_corrupt_cache_entry_is_resimulated_and_rewritten(matrix, tmp_path):
    """A corrupt or truncated entry degrades to a miss mid-campaign: the cell
    is re-simulated, the entry rewritten, and the table is unchanged."""
    reference = run_campaign(matrix, ParallelRunner(cache=FilesystemStore(tmp_path)))

    entries = sorted(tmp_path.glob("*/*/*/*.json"))
    assert len(entries) == _cells(matrix)
    entries[0].write_text('{"value": 0.12')  # truncated write
    entries[1].write_text('{"value": Infinity}')  # parses, but not a result
    entries[2].write_bytes(b"\x00\xff\x00garbage")  # binary garbage

    rerun = ParallelRunner(cache=FilesystemStore(tmp_path))
    result = run_campaign(matrix, rerun)
    assert rerun.stats.tasks_run == 3  # only the corrupt cells
    assert render_campaign(result) == render_campaign(reference)

    # The corrupt entries were rewritten: a third pass is all hits again.
    final = ParallelRunner(cache=FilesystemStore(tmp_path))
    run_campaign(matrix, final)
    assert final.stats.tasks_run == 0


# ------------------------------------------------- backend bit-identity
def test_serial_and_process_backends_render_identical_tables(matrix):
    table_serial = run_campaign(matrix, ParallelRunner(backend="serial"))
    with ParallelRunner(backend="process", workers=2) as pool:
        table_process = run_campaign(matrix, pool)
    assert [o.values for o in table_serial.outcomes] == [o.values for o in table_process.outcomes]
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
        result = run_campaign(matrix, ParallelRunner(backend="counting-test"))
    finally:
        del _BACKEND_FACTORIES["counting-test"]
    assert batches == [_cells(matrix)]
    assert campaign_to_csv(result) == campaign_to_csv(run_campaign(matrix))


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_an_interrupted_campaign_keeps_every_seed_it_reported(matrix, tmp_path, backend):
    """Each seed is stored before the progress event that counts it, so a
    campaign interrupted inside its second cell keeps every reported seed,
    and a re-run simulates only the others."""
    # One axis: 8 seeds, so the pool's two workers get one seed per chunk.
    matrix = Campaign(name=matrix.name, base=matrix.base, axes=matrix.axes[:1])
    stop_after = matrix.base.num_runs + 1  # one seed into the second cell
    reported: dict[str, int] = {}

    def interrupt(event):
        reported[event.label] = event.completed
        if sum(reported.values()) >= stop_after:
            raise KeyboardInterrupt

    cache_dir = tmp_path / "cache"
    runner = ParallelRunner(
        backend=backend, workers=2, cache=FilesystemStore(cache_dir), progress=interrupt
    )
    with pytest.raises(KeyboardInterrupt):
        with runner:
            run_campaign(matrix, runner)
    assert sum(reported.values()) == stop_after
    assert len(list(cache_dir.glob("*/*/*/*.json"))) == stop_after

    with ParallelRunner(backend=backend, workers=2, cache=FilesystemStore(cache_dir)) as rerun:
        result = run_campaign(matrix, rerun)
    assert rerun.stats.cache_hits == stop_after
    assert rerun.stats.tasks_run == _cells(matrix) - stop_after
    assert campaign_to_csv(result) == campaign_to_csv(run_campaign(matrix))


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
    result = run_campaign(widened)
    assert result.strategies == ("ordered-daly", "least-waste", "oblivious-daly")
    table = render_campaign(result)
    assert "oblivious-daly" in table
    # The cell skipped by the base-strategy scenario renders as '-', while
    # the axis-added strategy's simulated cell is reported.
    families = result.outcomes[0]
    assert families.scenario.name == "strat=families"
    assert families.summaries["oblivious-daly"].n == matrix.base.num_runs
    csv_text = campaign_to_csv(result)
    assert "oblivious-daly" in csv_text


# ------------------------------------------------------------- rendering
def test_render_campaign_marks_the_best_strategy(matrix):
    result = run_campaign(matrix)
    table = render_campaign(result)
    for outcome in result.outcomes:
        assert outcome.scenario.name in table
    assert table.count("*") >= len(result.outcomes)  # one winner per row


def test_campaign_csv_quotes_scenario_names(matrix):
    import csv
    import io

    result = run_campaign(matrix)
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
    """The caller's runner is the context manager: a campaign grows its
    pool, and leaving the block shuts it down."""
    with ParallelRunner(backend="process", workers=2) as runner:
        run_campaign(matrix, runner)
        assert runner._backend_impl is not None
    assert runner._backend_impl is None  # pool shut down on exit
    runner.close()  # idempotent


# ------------------------------------------------------------- outcomes
def _outcome(matrix, values):
    """An outcome of the matrix's first scenario (seeds 1 and 2)."""
    return ScenarioOutcome(scenario=matrix.scenarios()[0], seeds=(1, 2), values=values)


def test_outcome_refuses_partial_misordered_and_short_values(matrix):
    """An outcome holds one value per seed for every declared strategy, in
    declaration order, so no reader needs a branch for a missing cell."""
    assert matrix.base.strategies == ("ordered-daly", "least-waste")
    for values in [
        {"least-waste": (0.1, 0.2)},  # partial
        {},  # empty
        {"least-waste": (0.1, 0.2), "ordered-daly": (0.1, 0.2)},  # misordered
        {"ordered-daly": (0.1, 0.2), "least-waste": (0.1, 0.2), "oblivious-daly": (0.1, 0.2)},
        {"ordered-daly": (0.1, 0.2), "least-waste": (0.1,)},  # short
    ]:
        with pytest.raises(ConfigurationError, match="outcome of scenario"):
            _outcome(matrix, values)


def test_best_strategy_skips_strategies_missing_from_partial_summaries(matrix):
    """A scenario whose axis narrows ``strategies`` has summaries for only
    some of the campaign's columns; its best comes from the strategies it
    ran, with no ``KeyError`` for the columns it skipped."""
    narrowed = Campaign(
        name="narrowed",
        base=matrix.base,
        axes=(Axis(name="strat", points=(AxisPoint("one", {"strategies": ("least-waste",)}),)),),
    )
    result = run_campaign(narrowed)
    (outcome,) = result.outcomes
    assert result.strategies == ("ordered-daly", "least-waste")
    assert tuple(outcome.summaries) == ("least-waste",)  # no ordered-daly cell
    assert outcome.best_strategy() == "least-waste"


def test_best_strategy_ties_resolve_in_declaration_order(matrix):
    outcome = _outcome(matrix, {"ordered-daly": (0.2, 0.1), "least-waste": (0.1, 0.2)})
    # Identical means: the earlier *declared* strategy wins.
    assert outcome.summaries["least-waste"].mean == outcome.summaries["ordered-daly"].mean
    assert outcome.best_strategy() == "ordered-daly"


def test_renderers_handle_partial_and_empty_outcomes(matrix):
    """A scenario whose axis overrides ``strategies`` leaves the other
    columns empty: its row renders '-' there, and only its own cells are
    detailed and exported."""
    skipping = Campaign(
        name="skipping",
        base=matrix.base,
        axes=(Axis(name="strat", points=(AxisPoint("one", {"strategies": ("least-waste",)}),)),),
    )
    result = run_campaign(skipping)
    assert result.strategies == ("ordered-daly", "least-waste")
    table = render_campaign(result)
    assert "-" in table.splitlines()[-1]  # the skipped cell
    assert "*" in table  # the present cell still gets its winner
    details = render_campaign_details(result)
    assert "least-waste" in details and "ordered-daly" not in details
    rows = campaign_to_csv(result).splitlines()
    assert len(rows) == 2  # header + the one populated cell


def test_campaign_csv_degrades_unregistered_strategy_kinds_to_their_spec(matrix):
    """Regression: exporting a campaign that ran a custom strategy kind must
    not require the kind's registering module in the reporting process."""
    import csv
    import io

    from repro.iosched.registry import _KINDS, ParamSpec, make_strategy, register_strategy

    register_strategy(
        "myplugin",
        lambda spec, *, fixed_period_s: make_strategy("least-waste"),
        params=(ParamSpec("gain", float, default=1.0),),
    )
    try:
        scenario = matrix.base.apply(strategies=("myplugin[gain=2]",))
    finally:
        del _KINDS["myplugin"]  # never registered in the reporting process
    (spec,) = scenario.strategies
    outcome = ScenarioOutcome(scenario=scenario, seeds=(1, 2), values={spec: (0.3, 0.4)})
    result = CampaignResult(campaign="plugin", strategies=(spec,), outcomes=[outcome])
    rows = list(csv.reader(io.StringIO(campaign_to_csv(result))))
    assert rows[1][2] == spec
    assert rows[1][3] == spec  # resolved spec degrades to the canonical string
    assert rows[1][4] == "1"  # it is still the row's winner
