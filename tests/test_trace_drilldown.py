"""Per-cell waste drill-down (repro.trace) and its exactness contract.

The acceptance bar of the subsystem: a drill-down reproduces any campaign
cell from its cache key as the cell's own ``SimulationResult``, whose
components sum (repr-exact) to the recorded waste ratio, plus per-job rows,
byte-identical across repeated invocations, each of which re-simulates the
one cell.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.app_class import ApplicationClass
from repro.errors import AnalysisError, ConfigurationError
from repro.exec.digest import config_digest
from repro.exec.runner import ParallelRunner
from repro.platform.spec import PlatformSpec
from repro.scenarios.runner import drill_down, run_scenarios
from repro.scenarios.spec import Scenario
from repro.simulation.results import WasteBreakdown
from repro.simulation.simulator import Simulation
from repro.stats.montecarlo import derive_seeds
from repro.store import FilesystemStore
from repro.trace import WasteDecomposition, decomposition_to_csv, drill_down_cell, render_decomposition
from repro.units import DAY, GB, HOUR

_PLATFORM = PlatformSpec(
    name="drill",
    num_nodes=16,
    cores_per_node=4,
    memory_per_node_bytes=8.0 * GB,
    io_bandwidth_bytes_per_s=1.0 * GB,
    node_mtbf_s=20.0 * DAY,
)

_WORKLOAD = (
    ApplicationClass(
        name="alpha",
        nodes=4,
        work_s=2.0 * HOUR,
        input_bytes=2.0 * GB,
        output_bytes=4.0 * GB,
        checkpoint_bytes=8.0 * GB,
        workload_share=0.6,
    ),
    ApplicationClass(
        name="beta",
        nodes=2,
        work_s=1.0 * HOUR,
        input_bytes=1.0 * GB,
        output_bytes=2.0 * GB,
        checkpoint_bytes=3.0 * GB,
        workload_share=0.4,
    ),
)


def _scenario(**overrides) -> Scenario:
    parameters = dict(
        name="drill",
        platform=_PLATFORM,
        workload=_WORKLOAD,
        strategies=("ordered-daly", "least-waste"),
        num_runs=2,
        base_seed=7,
        horizon_days=0.5,
        warmup_days=0.05,
        cooldown_days=0.05,
    )
    parameters.update(overrides)
    return Scenario(**parameters)


def _components_sum(b: WasteBreakdown) -> float:
    # Summed in the same order as WasteBreakdown.waste.
    return b.io_delay + b.checkpoint + b.checkpoint_wait + b.recovery + b.lost_work


# --------------------------------------------------------------- exactness
def test_drill_down_reproduces_the_cached_cell_value(tmp_path):
    scenario = _scenario()
    cache = FilesystemStore(tmp_path)
    (outcome,) = run_scenarios([scenario], ParallelRunner(cache=cache))

    for strategy in scenario.strategies:
        for rep in range(scenario.num_runs):
            decomposition = drill_down(scenario, strategy, rep=rep, cache=cache)
            seed = derive_seeds(scenario.base_seed, scenario.num_runs)[rep]
            recorded = cache.probe(config_digest(scenario.config(strategy)), strategy, seed)
            assert recorded is not None
            assert recorded == outcome.values[strategy][rep]
            # repr-exact: the decomposition's ratio IS the cached float.
            assert repr(decomposition.result.waste_ratio) == repr(recorded)
            assert decomposition.recorded_value == recorded
            breakdown = decomposition.result.breakdown
            assert _components_sum(breakdown) == breakdown.waste
    # The drilled repetitions stay consistent with the campaign summary.
    assert 0.0 <= outcome.summaries[strategy].mean <= 1.0


def test_decomposition_contains_per_job_rows_with_stable_labels():
    scenario = _scenario(num_runs=1)
    decomposition = drill_down(scenario, "least-waste")
    assert decomposition.jobs, "a half-day run must attribute work to jobs"
    names = [job.name for job in decomposition.jobs]
    assert len(set(names)) == len(names)  # labels are unique
    assert all("#" in name for name in names)  # <class>#<ordinal>[+r...]
    # Per-job ledgers add up to the aggregates (up to float reassociation).
    for field in ("compute", "checkpoint", "recovery", "lost_work", "io_delay"):
        total = sum(getattr(job, field) for job in decomposition.jobs)
        aggregate = getattr(decomposition.result.breakdown, field)
        assert total == pytest.approx(aggregate, rel=1e-9, abs=1e-6)


def test_drill_down_is_deterministic_byte_identical_csv():
    scenario = _scenario(num_runs=1)
    first = decomposition_to_csv(drill_down(scenario, "least-waste"))
    second = decomposition_to_csv(drill_down(scenario, "least-waste"))
    assert first == second  # byte-identical despite fresh Job ids
    assert render_decomposition(drill_down(scenario, "least-waste")) == render_decomposition(
        drill_down(scenario, "least-waste")
    )


# --------------------------------------------------------------- the cache
def test_contradicted_scalar_entry_fails_loudly(tmp_path):
    """A scalar entry the simulator can no longer reproduce (a behaviour
    change without a DIGEST_VERSION bump) must raise, not silently coexist
    with fresh values in one campaign table."""
    scenario = _scenario(num_runs=1)
    cache = FilesystemStore(tmp_path)
    config = scenario.config("least-waste")
    seed = derive_seeds(scenario.base_seed, 1)[0]
    first = drill_down_cell(config, seed, cache=cache, scenario=scenario.name)

    # Corrupt the scalar entry: a fresh simulation cannot reproduce it.
    cache.put(config_digest(config), config.strategy, seed, 0.999)
    with pytest.raises(AnalysisError, match="contradicts the cached value"):
        drill_down_cell(config, seed, cache=cache, scenario=scenario.name)

    # Restoring the true value heals the cell.
    cache.put(config_digest(config), config.strategy, seed, first.result.waste_ratio)
    assert drill_down_cell(config, seed, cache=cache, scenario=scenario.name) == first


def test_drill_takes_the_callers_scenario_label(tmp_path):
    """The cell is content-addressed: a cell first drilled under one
    campaign's scenario name must not leak that name into another
    campaign's report."""
    scenario = _scenario(num_runs=1)
    cache = FilesystemStore(tmp_path)
    config = scenario.config("least-waste")
    seed = derive_seeds(scenario.base_seed, 1)[0]
    drill_down_cell(config, seed, cache=cache, scenario="campaign-a-name")
    again = drill_down_cell(config, seed, cache=cache, scenario="campaign-b-name")
    assert again.scenario == "campaign-b-name"
    assert "campaign-b-name" in decomposition_to_csv(again)


# --------------------------------------------------------------- addressing
def test_drill_down_validates_the_cell_address():
    scenario = _scenario()
    with pytest.raises(ConfigurationError, match="out of range"):
        drill_down(scenario, "least-waste", rep=scenario.num_runs)
    with pytest.raises(ConfigurationError, match="does not evaluate"):
        drill_down(scenario, "oblivious-daly")
    with pytest.raises(ConfigurationError, match="base_seed=None"):
        drill_down(_scenario(base_seed=None), "least-waste")


def test_restart_rows_chain_the_label_of_the_job_they_resubmit(tiny_config, tiny_classes):
    """A job that fails twice gives rows for itself, its restart and the
    restart's restart, in that order: each restart adds ``+r`` to the
    label of the job it resubmits (``Job.parent_id``)."""
    from repro.apps.job import Job
    from repro.platform.failures import FailureEvent, FailureTrace

    config = tiny_config(
        "ordered-fixed", horizon_s=1 * DAY, warmup_s=0.0, cooldown_s=0.0, collect_trace=True
    )
    alpha = tiny_classes[0]
    # Node 0 fails in the first run, node 1 in the restart's compute phase.
    trace = FailureTrace(
        [FailureEvent(0.5 * HOUR, 0), FailureEvent(1.0 * HOUR, 1)], horizon=config.horizon_s
    )
    sim = Simulation(config, jobs=[Job(app_class=alpha, total_work_s=2 * HOUR)], failure_trace=trace)
    result = sim.run()
    assert [restart.parent_id for restart in sim.restarts] == [
        sim.jobs[0].job_id, sim.restarts[0].job_id
    ]
    decomposition = WasteDecomposition.from_simulation(sim, result, digest="0" * 64)
    assert [job.name for job in decomposition.jobs] == ["alpha#1", "alpha#1+r", "alpha#1+r+r"]
    assert [job.index for job in decomposition.jobs] == [0, 1, 2]


def test_from_simulation_requires_a_trace_enabled_run(tiny_config):
    sim = Simulation(tiny_config())
    result = sim.run()
    with pytest.raises(AnalysisError, match="collect_trace"):
        WasteDecomposition.from_simulation(sim, result, digest="0" * 64)


# --------------------------------------------------------------- hypothesis
_random_cells = st.builds(
    lambda bandwidth, mtbf_days, horizon_h, strategy, seed: (
        _scenario(
            platform=_PLATFORM.with_bandwidth(bandwidth * GB).with_node_mtbf(
                mtbf_days * DAY
            ),
            strategies=(strategy,),
            num_runs=1,
            base_seed=seed,
            horizon_days=horizon_h / 24.0,
            warmup_days=horizon_h / 240.0,
            cooldown_days=horizon_h / 240.0,
        ),
        strategy,
    ),
    bandwidth=st.floats(min_value=0.1, max_value=4.0),
    mtbf_days=st.floats(min_value=2.0, max_value=60.0),
    horizon_h=st.floats(min_value=6.0, max_value=18.0),
    strategy=st.sampled_from(
        ["oblivious-fixed", "ordered-daly", "orderednb-fixed", "least-waste"]
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)


@settings(max_examples=8, deadline=None)
@given(cell=_random_cells)
def test_decomposition_invariant_over_random_scenarios(cell):
    """For ANY cell: the drill's result is the untraced run's, field by field,
    and its components sum repr-exactly to the recorded waste ratio."""
    scenario, strategy = cell
    config = scenario.config(strategy)
    seed = derive_seeds(scenario.base_seed, 1)[0]
    untraced = Simulation(config.with_seed(seed)).run()
    decomposition = drill_down_cell(config, seed, scenario=scenario.name)
    result = decomposition.result
    assert repr(result) == repr(untraced)  # every field, repr-exact
    assert _components_sum(result.breakdown) == result.breakdown.waste
    assert 0.0 <= result.waste_ratio <= 1.0
    assert result.efficiency == 1.0 - result.waste_ratio


def test_drill_down_matches_cells_recorded_by_the_process_backend(tmp_path):
    """The cells a process-pool campaign cached drill to the same bits."""
    scenario = _scenario(num_runs=1)
    cache = FilesystemStore(tmp_path)
    with ParallelRunner(backend="process", workers=2, cache=cache) as runner:
        run_scenarios([scenario], runner)
    decomposition = drill_down(scenario, "least-waste", cache=cache)
    seed = derive_seeds(scenario.base_seed, 1)[0]
    recorded = cache.probe(config_digest(scenario.config("least-waste")), "least-waste", seed)
    assert recorded is not None
    assert repr(decomposition.result.waste_ratio) == repr(recorded)


def test_drill_repairs_a_lost_scalar_entry(tmp_path):
    """A drill restores a deleted/corrupt scalar entry, so the next
    campaign run serves the cell as a hit again."""
    scenario = _scenario(num_runs=1)
    cache = FilesystemStore(tmp_path)
    config = scenario.config("least-waste")
    seed = derive_seeds(scenario.base_seed, 1)[0]
    first = drill_down_cell(config, seed, cache=cache, scenario=scenario.name)

    digest = config_digest(config)
    entry = cache._entry_path(digest, config.strategy, seed)
    entry.write_text("{broken")  # torn write: probe() treats it as a miss
    assert cache.probe(digest, config.strategy, seed) is None
    again = drill_down_cell(config, seed, cache=cache, scenario=scenario.name)
    assert again == first
    assert cache.probe(digest, config.strategy, seed) == first.result.waste_ratio


def test_detailed_drill_reports_cache_provenance(tmp_path):
    """recorded_value distinguishes a genuine comparison from a cold drill
    that wrote the entry itself (the CLI's match claim rests on this)."""
    scenario = _scenario(num_runs=1)
    cache = FilesystemStore(tmp_path)
    config = scenario.config("least-waste")
    seed = derive_seeds(scenario.base_seed, 1)[0]

    cold = drill_down_cell(config, seed, cache=cache, scenario=scenario.name)
    assert cold.recorded_value is None  # nothing pre-existed to compare
    warm = drill_down_cell(config, seed, cache=cache, scenario=scenario.name)
    assert warm.recorded_value == cold.result.waste_ratio
    # Provenance takes no part in equality: cold and warm drills are one cell.
    assert warm == cold

    via_scenario = drill_down(scenario, "least-waste", cache=cache)
    assert via_scenario.recorded_value == cold.result.waste_ratio
    assert drill_down_cell(config, seed).recorded_value is None  # no store
