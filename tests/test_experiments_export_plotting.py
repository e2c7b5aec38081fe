"""Result export (CSV/JSON) and ASCII plotting."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.errors import AnalysisError
from repro.experiments.export import (
    figure3_to_csv,
    figure3_to_rows,
    sweep_to_csv,
    sweep_to_json,
    sweep_to_rows,
    write_text,
)
from repro.experiments import figure1
from repro.experiments.figure3 import Figure3Result
from repro.experiments.plotting import ascii_chart, sweep_chart
from repro.experiments.report import point_bound, sweep_campaign, sweep_values
from repro.scenarios.runner import CampaignResult, ScenarioOutcome
from repro.scenarios.spec import Scenario

SWEEP = ("bandwidth (GB/s)", [40.0, 160.0])


@pytest.fixture
def sweep_result(tiny_platform, tiny_classes) -> CampaignResult:
    base = Scenario(
        name="sweep",
        platform=tiny_platform,
        workload=tiny_classes,
        strategies=("oblivious-fixed", "least-waste"),
    )
    low, high = sweep_campaign(base, "bandwidth_gbs", SWEEP[1]).scenarios()
    return CampaignResult(
        campaign="sweep",
        strategies=base.strategies,
        outcomes=[
            ScenarioOutcome(
                low, (1, 2), {"oblivious-fixed": (0.8, 0.82), "least-waste": (0.25, 0.26)}
            ),
            ScenarioOutcome(
                high, (1, 2), {"oblivious-fixed": (0.3, 0.28), "least-waste": (0.14, 0.15)}
            ),
        ],
    )


@pytest.fixture
def figure3_result() -> Figure3Result:
    return Figure3Result(
        node_mtbf_years=[5.0, 25.0],
        strategies=["oblivious-fixed", "least-waste"],
        min_bandwidth_tbs={"oblivious-fixed": [20.0, 8.0], "least-waste": [2.0, 1.0]},
        theory_tbs=[1.5, 0.8],
        target_efficiency=0.8,
    )


# --------------------------------------------------------------------- export
def test_sweep_rows_cover_all_cells_and_theory(sweep_result):
    rows = sweep_to_rows(sweep_result, *SWEEP)
    # 2 values x (2 strategies + theory) = 6 rows.
    assert len(rows) == 6
    strategies = {row["strategy"] for row in rows}
    assert strategies == {"oblivious-fixed", "least-waste", "theoretical-model"}
    lw_40 = next(r for r in rows if r["strategy"] == "least-waste" and r["value"] == 40.0)
    assert lw_40["mean"] == pytest.approx(0.255)
    theory = [r["mean"] for r in rows if r["strategy"] == "theoretical-model"]
    assert theory == [point_bound(outcome) for outcome in sweep_result.outcomes]
    with pytest.raises(ValueError):
        sweep_to_rows(sweep_result, "bandwidth (GB/s)", [40.0])


def test_sweep_csv_parses_back(sweep_result):
    text = sweep_to_csv(sweep_result, *SWEEP)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == 6
    assert rows[0]["parameter"] == "bandwidth (GB/s)"


def test_sweep_json_round_trip(sweep_result):
    payload = json.loads(sweep_to_json(sweep_result, *SWEEP))
    assert payload["parameter"] == "bandwidth (GB/s)"
    assert payload["values"] == [40.0, 160.0]
    assert payload["strategies"] == ["oblivious-fixed", "least-waste"]
    assert len(payload["rows"]) == 6


def test_integer_axis_values_export_as_floats():
    config = figure1.Figure1Config(
        bandwidths_gbs=(40, 160), strategies=("least-waste",), horizon_days=0.25,
        warmup_days=0.05, cooldown_days=0.05, num_runs=1,
    )
    result = figure1.run_figure1(config)
    values = sweep_values(config.campaign())
    text = sweep_to_csv(result, figure1.PARAMETER, values)
    assert [row.split(",")[1] for row in text.splitlines()[1:]] == ["40.0"] * 2 + ["160.0"] * 2
    payload = json.loads(sweep_to_json(result, figure1.PARAMETER, values))
    assert [repr(value) for value in payload["values"]] == ["40.0", "160.0"]
    assert [repr(row["value"]) for row in payload["rows"]] == ["40.0"] * 2 + ["160.0"] * 2


def test_figure3_rows_and_csv(figure3_result):
    rows = figure3_to_rows(figure3_result)
    assert len(rows) == 6
    assert any(row["strategy"] == "theoretical-model" for row in rows)
    text = figure3_to_csv(figure3_result)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert parsed[0]["node_mtbf_years"] == "5.0"


def test_write_text_creates_parent_dirs(tmp_path):
    target = write_text(tmp_path / "nested" / "out.csv", "a,b\n1,2\n")
    assert target.read_text() == "a,b\n1,2\n"


# ------------------------------------------------------------------- plotting
def test_ascii_chart_contains_markers_and_axis_labels():
    chart = ascii_chart(
        {"up": [0.0, 1.0, 2.0], "down": [2.0, 1.0, 0.0]},
        x_values=[1.0, 2.0, 3.0],
        width=40,
        height=10,
        y_label="waste",
        x_label="bandwidth",
    )
    assert "waste" in chart
    assert "bandwidth" in chart
    assert "legend:" in chart
    assert "o up" in chart and "x down" in chart
    # The plot body is bounded by the requested width.
    body_lines = [line for line in chart.splitlines() if line.strip().startswith("|")]
    assert body_lines
    assert all(len(line) <= 40 + 14 for line in body_lines)


def test_ascii_chart_handles_flat_series():
    chart = ascii_chart({"flat": [1.0, 1.0]}, x_values=[0.0, 1.0], width=20, height=5)
    assert "flat" in chart


def test_ascii_chart_validation():
    with pytest.raises(AnalysisError):
        ascii_chart({}, x_values=[1.0])
    with pytest.raises(AnalysisError):
        ascii_chart({"a": [1.0, 2.0]}, x_values=[1.0])
    with pytest.raises(AnalysisError):
        ascii_chart({"a": []}, x_values=[])


def test_sweep_chart_includes_every_strategy(sweep_result):
    chart = sweep_chart(sweep_result, *SWEEP)
    assert "least-waste" in chart
    assert "theoretical-model" in chart
    assert "waste ratio" in chart
