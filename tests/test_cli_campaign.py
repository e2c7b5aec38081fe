"""The ``campaign`` CLI subcommand."""

from __future__ import annotations

import contextlib
import json
import re

import pytest

from repro.cli import build_parser, main


def test_parser_knows_the_campaign_subcommand():
    args = build_parser().parse_args(["campaign"])
    assert args.command == "campaign"
    assert args.preset is None  # resolved to "smoke" at run time
    assert args.backend is None  # resolved from --workers at run time
    args = build_parser().parse_args(
        ["campaign", "--preset", "prospective-resilience", "--workers", "3"]
    )
    assert args.preset == "prospective-resilience"
    assert args.workers == 3
    with pytest.raises(SystemExit):  # --preset and --file are exclusive
        build_parser().parse_args(["campaign", "--preset", "smoke", "--file", "x.toml"])


def test_campaign_rejects_unknown_preset(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "--preset", "bogus"])


def test_campaign_smoke_prints_the_comparison_table(capsys):
    assert main(["campaign", "--preset", "smoke", "--num-runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "Campaign smoke" in out
    assert "io=1,mtbf=short" in out and "io=4,mtbf=long" in out
    assert "least-waste" in out
    assert "*" in out  # a winner is marked on every row


def test_campaign_details_and_best_summary(capsys):
    assert (
        main(
            [
                "campaign",
                "--preset", "smoke",
                "--num-runs", "1",
                "--horizon-days", "0.25",
                "--strategies", "least-waste",
                "--details",
                "--best-summary",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "MiniCielo" in out  # details include scenario descriptions
    assert "breakdown (node-hours in window):" in out  # full first-seed summary


def test_best_summary_drills_the_first_measured_seed_of_an_unseeded_campaign(
    tmp_path, capsys, monkeypatch
):
    """An unseeded scenario draws fresh seeds on every expansion; the
    campaign's outcome keeps the ones it ran, so each summary replays the
    first seed the table measured."""
    import repro.scenarios.runner
    import repro.trace

    results, drills = [], []

    def recording_run_campaign(campaign, runner=None):
        results.append(run_campaign(campaign, runner))
        return results[-1]

    def recording_drill(*args, **kwargs):
        drills.append(drill_down_cell(*args, **kwargs))
        return drills[-1]

    run_campaign = repro.scenarios.runner.run_campaign
    drill_down_cell = repro.trace.drill_down_cell
    monkeypatch.setattr(repro.scenarios.runner, "run_campaign", recording_run_campaign)
    monkeypatch.setattr(repro.trace, "drill_down_cell", recording_drill)
    matrix = tmp_path / "unseeded.json"
    matrix.write_text(json.dumps({
        "name": "unseeded",
        "base": "smoke",
        "overrides": {"base_seed": None, "num_runs": 2, "horizon_days": 0.25},
        "axes": [{"name": "io", "key": "bandwidth_gbs", "values": [1.0, 4.0]}],
    }))
    argv = ["campaign", "--file", str(matrix), "--best-summary", "--cache-dir", str(tmp_path / "c")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    (result,) = results
    assert len(drills) == len(result.outcomes) == 2
    for outcome, drill in zip(result.outcomes, drills):
        best = outcome.best_strategy()
        first = outcome.values[best][0]
        assert repr(drill.result.waste_ratio) == repr(first)
        assert repr(drill.recorded_value) == repr(first)  # through the store too
        section = out.split(f"--- {outcome.scenario.name} / {best} (first seed) ---\n")[1]
        assert section.splitlines()[1] == f"waste ratio         : {first:.3f}"


def test_best_summary_checks_the_stored_first_seed_value(tmp_path, capsys):
    """--best-summary drills through the store: a stored first-seed value the
    re-run contradicts is an error, not a summary of another run."""
    from repro.exec.digest import config_digest
    from repro.scenarios.presets import make_campaign
    from repro.stats.montecarlo import derive_seed
    from repro.store import FilesystemStore

    cache_dir = tmp_path / "cache"
    argv = [
        "campaign", "--preset", "smoke", "--num-runs", "1", "--horizon-days", "0.25",
        "--strategies", "least-waste", "--cache-dir", str(cache_dir),
    ]
    assert main(argv) == 0
    scenario = make_campaign("smoke", num_runs=1, horizon_days=0.25).scenarios()[0]
    config = scenario.config("least-waste")
    FilesystemStore(cache_dir).put(
        config_digest(config), "least-waste", derive_seed(scenario.base_seed, 0), 0.999
    )
    capsys.readouterr()
    assert main([*argv, "--best-summary"]) == 2
    assert "contradicts the cached value 0.999" in capsys.readouterr().err


def test_campaign_csv_export(tmp_path, capsys):
    csv_path = tmp_path / "campaign.csv"
    assert (
        main(
            [
                "campaign",
                "--preset", "smoke",
                "--num-runs", "1",
                "--strategies", "least-waste",
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert f"wrote {csv_path}" in out
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("campaign,scenario,strategy,spec,best,")


def test_campaign_cache_reruns_without_simulating(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = [
        "campaign",
        "--preset", "smoke",
        "--num-runs", "1",
        "--strategies", "least-waste",
        "--cache-dir", str(cache),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "cache: 0 hit(s), 4 simulation(s)" in first

    assert main(argv) == 0
    second = capsys.readouterr().out
    assert "cache: 4 hit(s), 0 simulation(s)" in second
    # The rendered table is identical either way.
    assert first.split("cache:")[0] == second.split("cache:")[0]


def test_campaign_workers_flag_matches_serial_output(capsys):
    argv = ["campaign", "--preset", "smoke", "--num-runs", "2", "--strategies", "least-waste"]
    assert main(argv) == 0
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", "2"]) == 0
    parallel = capsys.readouterr().out
    assert serial == parallel


#: Two axis points with the same bandwidth: both cells have one store key.
_SHARED_KEY_MATRIX = {
    "name": "shared-key",
    "base": "smoke",
    "overrides": {"strategies": ["least-waste"], "num_runs": 2},
    "axes": [
        {"name": "io", "key": "bandwidth_gbs", "values": [4.0, 4.0], "labels": ["a", "b"]}
    ],
}


@pytest.mark.parametrize(
    "backend_args, expected",
    [
        ([], "cache: 2 hit(s), 2 simulation(s) this run"),
        (["--workers", "2"], "cache: 2 hit(s), 2 simulation(s) this run"),
        (["--backend", "spool"], "cache: 2 hit(s), 0 simulation(s), 2 remote seed(s) this run"),
    ],
    ids=["serial", "pool", "spool"],
)
def test_cells_sharing_a_store_key_are_simulated_once(
    tmp_path, capsys, spool_workers, backend_args, expected
):
    """The second cell's seeds are the first cell's: they are simulated
    once, and the second cell reads them back as cache hits."""
    matrix = tmp_path / "shared-key.json"
    matrix.write_text(json.dumps(_SHARED_KEY_MATRIX))
    cache_dir, spool_dir = tmp_path / "cache", tmp_path / "spool"
    argv = ["campaign", "--file", str(matrix), "--cache-dir", str(cache_dir), *backend_args]
    workers = contextlib.nullcontext()
    if "spool" in backend_args:
        argv += ["--spool", str(spool_dir), "--spool-timeout", "120"]
        workers = spool_workers(spool_dir, cache_dir, count=2)
    with workers:
        assert main(argv) == 0
    assert expected in capsys.readouterr().out


@pytest.mark.parametrize(
    "name, text",
    [
        ("huge.json", '{"name": "f", "base": "smoke", "overrides": {"horizon_days": 1%s}}'
         % ("0" * 400)),
        ("deep.json", '{"name": "f", "x": %s}' % ("[" * 100_000 + "]" * 100_000)),
        ("deep.toml", 'name = "f"\nx = %s\n' % ("[" * 100_000 + "]" * 100_000)),
    ],
    ids=["huge-integer", "deep-json", "deep-toml"],
)
def test_a_hostile_campaign_file_is_a_clean_error(tmp_path, capsys, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    assert main(["campaign", "--file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


#: A 4 300-digit number, the longest integer ``json`` parses.
_HUGE = "1" + "0" * 4299


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("horizon_days", '{"horizon_days": %s}' % _HUGE),
        ("num_runs", '{"num_runs": %s}' % _HUGE),
        ("bandwidth_gbs", '{"bandwidth_gbs": %s}' % _HUGE),
        ("period_s", '{"strategies": ["ordered[policy=fixed,period_s=%s]"]}' % _HUGE),
    ],
    ids=["horizon_days", "num_runs", "bandwidth_gbs", "strategy-parameter"],
)
def test_a_refused_huge_value_gives_a_short_error_line(tmp_path, capsys, key, overrides):
    """The error line keeps the head of the refused value, not all 4 300 digits."""
    path = tmp_path / "huge.json"
    path.write_text('{"name": "f", "base": "smoke", "overrides": %s}' % overrides)
    assert main(["campaign", "--file", str(path)]) == 2
    err = capsys.readouterr().err.strip()
    # 4 300 digits, or 4 302 characters for the quoted spec parameter.
    assert err.startswith("error: ") and key in err and re.search(r"… \(430[02] characters\)", err)
    assert len(err) < 200, err[:300]


def test_campaign_validates_num_runs():
    # Misconfiguration follows the documented contract: exit 2, not 1.
    assert main(["campaign", "--preset", "smoke", "--num-runs", "0"]) == 2


# --------------------------------------------------------- trace drill-down
def test_trace_drills_a_campaign_cell_and_matches_the_cache(tmp_path, capsys):
    """The CI contract: run a campaign, drill one cell, decomposition
    components sum to the cell's cached waste value."""
    cache_dir = str(tmp_path / "cache")
    assert main(["campaign", "--preset", "smoke", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    csv_path = tmp_path / "cell.csv"
    assert (
        main(
            [
                "trace",
                "--campaign", "smoke",
                "--scenario", "io=1,mtbf=short",
                "--strategy", "least-waste",
                "--seed", "0",
                "--cache-dir", cache_dir,
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "matches the cached cell value" in out
    assert "waste components" in out
    first = csv_path.read_text()
    assert first.startswith("scenario,strategy,seed,scope,job,")

    # Re-drilling re-simulates the cell and stays byte-identical.
    assert (
        main(
            [
                "trace",
                "--campaign", "smoke",
                "--scenario", "io=1,mtbf=short",
                "--strategy", "least-waste",
                "--cache-dir", cache_dir,
                "--csv", str(csv_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert csv_path.read_text() == first


def test_trace_on_a_cold_cache_does_not_claim_a_vacuous_match(tmp_path, capsys):
    """Without a prior campaign run there is no recorded value to verify
    against; the drill must say so, not self-confirm the entry it wrote."""
    cache_dir = str(tmp_path / "fresh")
    argv = [
        "trace",
        "--campaign", "smoke",
        "--scenario", "io=1,mtbf=short",
        "--strategy", "least-waste",
        "--cache-dir", cache_dir,
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "matches the cached cell value" not in out
    assert "was not in the cache before" in out
    # The drill warmed the cache, so a second run really does compare.
    assert main(argv) == 0
    assert "matches the cached cell value" in capsys.readouterr().out


def test_trace_cell_defaults_and_works_without_a_cache(capsys):
    """--scenario picks the cell; strategy defaults to the scenario's first."""
    assert main(["trace", "--campaign", "smoke", "--scenario", "io=4,mtbf=long"]) == 0
    out = capsys.readouterr().out
    assert "Cell io=4,mtbf=long / ordered-daly" in out
    assert "waste ratio" in out


def test_trace_cell_addressing_errors_exit_2(tmp_path, capsys):
    # Unknown campaign (neither preset nor file).
    assert main(["trace", "--campaign", "bogus"]) == 2
    # Ambiguous scenario: smoke expands to four.
    assert main(["trace", "--campaign", "smoke"]) == 2
    # Unknown scenario name.
    assert main(["trace", "--campaign", "smoke", "--scenario", "nope"]) == 2
    # Repetition out of range (smoke runs 2 repetitions).
    assert (
        main(["trace", "--campaign", "smoke", "--scenario", "io=1,mtbf=short", "--seed", "9"])
        == 2
    )
    # --csv without --campaign has nothing to export.
    assert main(["trace", "--csv", str(tmp_path / "x.csv")]) == 2
    # Mode mix-ups are loud, never silently ignored: timeline knobs don't
    # apply to a campaign cell, and cell addressing needs a campaign.
    assert main(["trace", "--campaign", "smoke", "--scenario", "io=1,mtbf=short",
                 "--horizon-days", "5"]) == 2
    assert main(["trace", "--scenario", "io=1,mtbf=short"]) == 2
    err = capsys.readouterr().err
    assert "pick one with --scenario" in err
    assert "--horizon-days only applies to the timeline mode" in err
