"""Command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for command in ("table1", "lower-bound", "simulate", "figure1", "figure2", "figure3"):
        args = parser.parse_args([command])
        assert args.command == command


def test_table1_command(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "EAP" in out and "Silverton" in out


def test_lower_bound_command(capsys):
    assert main(["lower-bound", "--bandwidth-gbs", "40"]) == 0
    out = capsys.readouterr().out
    assert "waste lower bound" in out
    assert "EAP" in out


def test_simulate_command_small(capsys):
    assert (
        main(
            [
                "simulate",
                "--strategy",
                "least-waste",
                "--bandwidth-gbs",
                "80",
                "--horizon-days",
                "1.0",
                "--seed",
                "0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "waste ratio" in out
    assert "least-waste" in out


def test_figure1_command_small(capsys):
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
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "Figure 1" in out
    assert "least-waste" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["not-a-command"])


def test_simulate_rejects_unknown_strategy(capsys):
    # Free-form --strategy goes through the library validator: exit 2 with
    # the registry's message (argparse used to SystemExit via choices=).
    assert main(["simulate", "--strategy", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown strategy 'bogus'" in err


# ------------------------------------------------------- strategy specs
def test_strategies_command_lists_kinds_and_legacy_names(capsys):
    assert main(["strategies"]) == 0
    out = capsys.readouterr().out
    for kind in ("oblivious", "ordered", "orderednb", "least-waste"):
        assert kind in out
    assert "policy" in out and "period_s" in out and "mtbf_bias" in out
    assert "ordered-fixed" in out  # legacy aliases listed
    assert "register_strategy" in out  # points at the extension API


def test_strategies_command_json_is_machine_readable(capsys):
    import json

    assert main(["strategies", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "ordered" in payload["kinds"]
    params = {p["name"]: p for p in payload["kinds"]["ordered"]["params"]}
    assert params["policy"]["choices"] == ["fixed", "daly"]
    assert params["period_s"]["type"] == "float"
    assert payload["legacy"][-1] == "least-waste"


def test_simulate_accepts_parameterized_spec(capsys):
    assert (
        main(
            [
                "simulate",
                "--strategy", "ordered[policy=fixed,period_s=1800]",
                "--bandwidth-gbs", "80",
                "--horizon-days", "0.5",
                "--seed", "0",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "ordered[policy=fixed,period_s=1800]" in out


def test_campaign_accepts_parameterized_strategies(capsys):
    assert (
        main(
            [
                "campaign",
                "--preset", "smoke",
                "--num-runs", "1",
                "--strategies", "ordered[policy=fixed,period_s=1800]",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "ordered[policy=fixed,period_s=1800]" in out


def test_malformed_strategy_spec_exits_2(capsys):
    assert main(["simulate", "--strategy", "ordered[policy=", "--horizon-days", "0.1"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert main(["campaign", "--preset", "smoke", "--strategies", "ordered-dally"]) == 2
    err = capsys.readouterr().err
    assert "did you mean 'ordered-daly'?" in err


def test_campaign_csv_has_resolved_spec_column(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "campaign",
                "--preset", "period-sweep",
                "--num-runs", "1",
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    import csv as _csv
    import io as _io

    rows = list(_csv.DictReader(_io.StringIO(csv_path.read_text())))
    specs = {row["spec"] for row in rows}
    assert "ordered[policy=daly]" in specs  # the reference cell, resolved
    assert "ordered[policy=fixed,period_s=1800]" in specs
    assert "ordered[policy=fixed,period_s=7200]" in specs


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--bandwidth-gbs", "nan", "--horizon-days", "0.5"],
        ["simulate", "--horizon-days", "nan"],
        ["simulate", "--node-mtbf-years", "inf", "--horizon-days", "0.5"],
        ["lower-bound", "--bandwidth-gbs", "nan"],
        ["campaign", "--horizon-days", "nan"],
        ["trace", "--horizon-days", "inf"],
    ],
)
def test_non_finite_numeric_flags_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "-1", "--horizon-days", "0.5"],
        ["trace", "--seed", "-1", "--horizon-days", "0.5"],
        ["ablation", "--study", "interference", "--alphas", "nan",
         "--horizon-days", "0.5", "--num-runs", "1"],
        ["ablation", "--study", "interference", "--alphas", "inf",
         "--horizon-days", "0.5", "--num-runs", "1"],
        ["trace", "--max-events", "-3", "--horizon-days", "0.5"],
        ["cache", "gc", "--cache-dir", "{tmp}", "--older-than", "nan"],
    ],
)
def test_out_of_range_flags_exit_2_in_one_line(argv, tmp_path, capsys):
    """Inputs that used to crash in numpy or print a silently wrong result."""
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ")


def _matrix_file(tmp_path, overrides=None, values=(2.0,)):
    import json

    path = tmp_path / "matrix.json"
    path.write_text(
        json.dumps(
            {
                "name": "bad-numbers",
                "base": "smoke",
                "overrides": {"num_runs": 1, "horizon_days": 0.5, **(overrides or {})},
                "axes": [{"name": "io", "key": "bandwidth_gbs", "values": list(values)}],
            }
        )
    )
    return str(path)


def test_campaign_file_with_a_nan_cell_exits_2_and_caches_nothing(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["campaign", "--file", _matrix_file(tmp_path, values=(2.0, float("nan")))]
    assert main([*argv, "--cache-dir", str(cache)]) == 2
    assert "'bandwidth_gbs' must be a finite number" in capsys.readouterr().err
    assert not [path for path in cache.rglob("*") if path.is_file()]


@pytest.mark.parametrize("value", ["abc", float("nan"), float("inf"), 1e400, 2.5])
def test_campaign_file_with_a_bad_node_count_exits_2(tmp_path, capsys, value):
    assert main(["campaign", "--file", _matrix_file(tmp_path, {"num_nodes": value})]) == 2
    assert "error: override 'num_nodes' must be" in capsys.readouterr().err


@pytest.mark.parametrize("num_runs", ["100001", "100000000000000000000"])
def test_a_run_count_over_the_bound_exits_2_in_one_line(capsys, num_runs):
    assert main(["campaign", "--preset", "smoke", "--num-runs", num_runs]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: scenario 'mini-cielo': num_runs must be at most 100000, got {num_runs}"
    ]


@pytest.mark.parametrize("num_nodes", [1_000_001, 1_000_000_000])
def test_a_node_count_over_the_bound_exits_2_in_one_line(tmp_path, capsys, num_nodes):
    assert main(["campaign", "--file", _matrix_file(tmp_path, {"num_nodes": num_nodes})]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and f"num_nodes must be at most 1000000, got {num_nodes}" in line


#: Campaign-file overrides that used to crash with a traceback or silently
#: change meaning (a boolean is not a number, 1.5 is not a seed).
HOSTILE_OVERRIDES = [
    ("base_seed", "abc"), ("base_seed", -1), ("base_seed", [1]), ("base_seed", 1.5),
    ("workload", "abc"), ("workload", ["EAP"]), ("strategies", None),
    ("failure_model", None), ("bandwidth_gbs", True), ("horizon_days", True),
    ("num_runs", True),
]


@pytest.mark.parametrize("key, value", HOSTILE_OVERRIDES)
def test_campaign_file_with_a_hostile_override_exits_2(tmp_path, capsys, key, value):
    assert main(["campaign", "--file", _matrix_file(tmp_path, {key: value})]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err


def test_a_campaign_whose_transfers_are_shorter_than_the_clock_resolves_completes(
    tmp_path, capsys
):
    # At 10^7 GB/s a 15.4 GB commit takes 1.5 ms, and late in the run its
    # completion fires within a clock ulp of its exact time with 16 919
    # bytes left: more than the byte tolerance, less than the time the
    # clock resolves.  The second seed of this campaign met one.
    import json

    path = tmp_path / "campaign.json"
    overrides = {
        "bandwidth_gbs": 1e7, "num_runs": 2, "horizon_days": 0.25, "strategies": ["ordered-daly"],
    }
    path.write_text(json.dumps({"name": "hb", "base": "smoke", "overrides": overrides}))
    assert main(["campaign", "--file", str(path)]) == 0, capsys.readouterr().err
