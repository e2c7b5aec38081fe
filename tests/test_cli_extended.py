"""Extended CLI commands: export, chart, ablation and trace."""

from __future__ import annotations

import csv
import io

from repro.cli import main


def test_figure1_with_chart_and_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "fig1.csv"
    assert (
        main(
            [
                "figure1",
                "--bandwidths-gbs",
                "80",
                "--num-runs",
                "1",
                "--horizon-days",
                "1.0",
                "--chart",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "legend:" in out  # the ASCII chart
    assert csv_path.exists()
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert any(row["strategy"] == "theoretical-model" for row in rows)


def test_figure3_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "fig3.csv"
    assert (
        main(
            [
                "figure3",
                "--mtbf-years",
                "15",
                "--num-runs",
                "1",
                "--horizon-days",
                "1.0",
                "--csv",
                str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Figure 3" in out
    assert csv_path.exists()


def test_ablation_fixed_period_command(capsys):
    assert (
        main(
            [
                "ablation",
                "--study",
                "fixed-period",
                "--periods-hours",
                "1",
                "2",
                "--num-runs",
                "1",
                "--horizon-days",
                "1.0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Fixed-period ablation" in out
    assert "P = 1 h" in out and "P = 2 h" in out


def test_ablation_interference_command(capsys):
    assert (
        main(
            [
                "ablation",
                "--study",
                "interference",
                "--alphas",
                "0",
                "1",
                "--num-runs",
                "1",
                "--horizon-days",
                "1.0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Interference-model ablation" in out
    assert "linear" in out


def test_trace_command(capsys):
    assert (
        main(
            [
                "trace",
                "--strategy",
                "ordered-fixed",
                "--horizon-days",
                "1.0",
                "--seed",
                "1",
                "--max-events",
                "10",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "timeline" in out
    assert "job-start" in out


def test_ablation_refuses_a_spec_with_its_own_period(capsys):
    argv = [
        "ablation", "--strategy", "ordered[policy=fixed,period_s=1800]",
        "--periods-hours", "0.5", "4", "--num-runs", "1", "--horizon-days", "0.25",
    ]
    assert main(argv) == 2
    assert "period_s" in capsys.readouterr().err


def test_duplicate_sweep_values_exit_2(capsys):
    for argv in (
        ["figure1", "--bandwidths-gbs", "40", "40"],
        ["ablation", "--study", "interference", "--alphas", "0", "0"],
        ["ablation", "--periods-hours", "1", "1"],
    ):
        assert main(argv) == 2
        assert "has duplicate point labels" in capsys.readouterr().err
