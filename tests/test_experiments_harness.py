"""Experiment harness: table 1, sweeps and the figure experiments.

The figure experiments are exercised at a very small scale (tiny horizons,
one or two repetitions) so the whole file stays fast; the full-scale shape
checks live in the benchmark suite.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.exec import ParallelRunner
from repro.experiments.figure1 import Figure1Config, render_figure1, run_figure1
from repro.experiments.figure2 import Figure2Config, render_figure2, run_figure2
from repro.experiments.figure3 import Figure3Config, _min_bandwidth, render_figure3, run_figure3
from repro.experiments.report import (
    point_bound,
    render_sweep,
    render_sweep_detailed,
    sweep_campaign,
    sweep_values,
)
from repro.experiments.table1 import render_table1, table1_rows
from repro.iosched.registry import STRATEGIES
from repro.scenarios.runner import run_campaign
from repro.scenarios.spec import Scenario
from repro.workloads.apex import APEX_CLASSES


# -------------------------------------------------------------------- table 1
def test_table1_rows_reproduce_the_paper_numbers():
    rows = {str(row["Workflow"]): row for row in table1_rows()}
    assert rows["Workload percentage"]["EAP"] == 66.0
    assert rows["Work time (h)"]["VPIC"] == 157.2
    assert rows["Number of cores"]["Silverton"] == 32768
    assert rows["Checkpoint Size (% of memory)"]["LAP"] == 185.0


def test_render_table1_contains_all_classes():
    text = render_table1()
    for name in APEX_CLASSES:
        assert name in text
    assert "Derived absolute volumes" in text


# --------------------------------------------------------------------- sweeps
def _tiny_sweep(tiny_platform, tiny_classes, values, **shape):
    base = Scenario(
        name="tiny",
        platform=tiny_platform,
        workload=tiny_classes,
        strategies=("oblivious-fixed", "least-waste"),
        **shape,
    )
    return sweep_campaign(base, "bandwidth_gbs", values)


def test_run_sweep_structure(tiny_platform, tiny_classes):
    campaign = _tiny_sweep(
        tiny_platform, tiny_classes, [1.0, 2.0],
        horizon_days=0.5, warmup_days=0.05, cooldown_days=0.05, num_runs=1, base_seed=1,
    )
    assert [s.name for s in campaign.scenarios()] == ["bandwidth_gbs=1.0", "bandwidth_gbs=2.0"]
    result = run_campaign(campaign)
    values = sweep_values(campaign)
    assert values == [1.0, 2.0]
    assert result.strategies == ("oblivious-fixed", "least-waste")
    assert [o.scenario.name for o in result.outcomes] == [s.name for s in campaign.scenarios()]
    bounds = [point_bound(o) for o in result.outcomes]
    assert all(0.0 < bound < 1.0 for bound in bounds)
    text = render_sweep(result, "bandwidth (GB/s)", values, title="sweep")
    assert "theoretical-model" in text
    assert f"{bounds[1]:>18.3f}" in text.splitlines()[-1]
    detailed = render_sweep_detailed(result, "bandwidth (GB/s)", values, title="sweep")
    assert "oblivious-fixed" in detailed
    assert "bandwidth (GB/s) = 2" in detailed
    with pytest.raises(ValueError):
        render_sweep(result, "bandwidth (GB/s)", values[:1], title="sweep")


def test_run_sweep_through_parallel_runner_matches_serial(tiny_platform, tiny_classes):
    """Smoke test: a 2-worker process sweep equals the serial sweep exactly."""
    campaign = _tiny_sweep(
        tiny_platform, tiny_classes, [1.0, 2.0],
        horizon_days=0.25, warmup_days=0.02, cooldown_days=0.02, num_runs=2, base_seed=5,
    )
    serial = run_campaign(campaign)
    with ParallelRunner(backend="process", workers=2) as runner:
        parallel = run_campaign(campaign, runner)
    # Outcomes compare their scenarios, seeds and per-seed values exactly.
    assert parallel == serial


def test_run_sweep_requires_values(tiny_platform, tiny_classes):
    with pytest.raises(ConfigurationError, match="no points"):
        _tiny_sweep(tiny_platform, tiny_classes, [])
    with pytest.raises(ConfigurationError, match="no points"):
        run_figure1(Figure1Config(bandwidths_gbs=()))


def test_sweep_axis_refuses_only_exact_duplicates(tiny_platform, tiny_classes):
    # repr labels keep values that :g would print alike apart ...
    campaign = _tiny_sweep(tiny_platform, tiny_classes, [40.0000001, 40.0000002])
    assert [p.label for p in campaign.axes[0].points] == ["40.0000001", "40.0000002"]
    # ... and refuse a value given twice, which used to print its row twice.
    with pytest.raises(ConfigurationError, match="duplicate point labels"):
        _tiny_sweep(tiny_platform, tiny_classes, [40.0, 40.0])
    with pytest.raises(ConfigurationError, match="duplicate point labels"):
        Figure2Config(node_mtbf_years=(2.0, 2.0)).campaign()


# -------------------------------------------------------------------- figures
def test_figure1_small_scale_runs_all_strategies():
    config = Figure1Config(
        bandwidths_gbs=(80.0,),
        horizon_days=1.0,
        warmup_days=0.1,
        cooldown_days=0.1,
        num_runs=1,
        base_seed=2,
    )
    result = run_figure1(config)
    assert result.strategies == STRATEGIES
    assert len(result.outcomes) == 1
    text = render_figure1(result, sweep_values(config.campaign()))
    assert "Figure 1" in text


def test_figure2_small_scale_runs_subset():
    config = Figure2Config(
        node_mtbf_years=(10.0,),
        bandwidth_gbs=60.0,
        strategies=("ordered-daly", "least-waste"),
        horizon_days=1.0,
        warmup_days=0.1,
        cooldown_days=0.1,
        num_runs=1,
        base_seed=3,
    )
    result = run_figure2(config)
    assert result.strategies == ("ordered-daly", "least-waste")
    assert "Figure 2" in render_figure2(result, sweep_values(config.campaign()))


def test_figure_rows_print_the_value_that_ran(capsys):
    argv = ["figure2", "--mtbf-years", "2.5", "3.5", "--num-runs", "1", "--horizon-days", "0.25"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[4:6]
    assert [row.split()[0] for row in rows] == ["2.5", "3.5"]


def test_figure3_config_validation():
    with pytest.raises(ConfigurationError):
        Figure3Config(target_efficiency=1.5)
    with pytest.raises(ConfigurationError):
        Figure3Config(search_lo_tbs=5.0, search_hi_tbs=1.0)
    with pytest.raises(ConfigurationError):
        Figure3Config(search_iterations=0)
    assert Figure3Config(target_efficiency=0.8).target_waste_ratio == pytest.approx(0.2)


def test_figure3_bisection_helper():
    # waste(bw) = 1/bw; target 0.25 -> minimal bandwidth 4.
    found = _min_bandwidth(lambda bw: 1.0 / bw, 0.25, lo_tbs=0.5, hi_tbs=64.0, iterations=30)
    assert found == pytest.approx(4.0, rel=1e-3)
    # Lower bound already good enough.
    assert _min_bandwidth(lambda bw: 0.0, 0.25, 0.5, 64.0, 10) == 0.5
    # Even the upper bound is not enough.
    assert _min_bandwidth(lambda bw: 1.0, 0.25, 0.5, 64.0, 10) == 64.0


def test_figure3_theory_only_study():
    config = Figure3Config(node_mtbf_years=(5.0, 25.0), strategies=(), search_iterations=6)
    result = run_figure3(config)
    assert len(result.theory_tbs) == 2
    # A more reliable machine needs less bandwidth to hit the same efficiency.
    assert result.theory_tbs[1] <= result.theory_tbs[0]
    assert "Figure 3" in render_figure3(result)
