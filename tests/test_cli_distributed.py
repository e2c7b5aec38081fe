"""CLI surface of the distributed subsystem: ``worker``, ``cache``,
``campaign --backend spool`` and ``campaign --file``, plus the clean-exit
behaviour of :func:`repro.cli.main`."""

from __future__ import annotations

import json
import socket

import pytest

from repro.cli import build_parser, main
from repro.distributed import WorkSpool


def test_parser_knows_the_new_subcommands():
    parser = build_parser()
    args = parser.parse_args(["worker", "--spool", "s", "--cache-dir", "c", "--drain"])
    assert args.command == "worker" and args.drain
    args = parser.parse_args(["cache", "stats", "--cache-dir", "c"])
    assert args.command == "cache" and args.cache_command == "stats"
    args = parser.parse_args(
        ["cache", "gc", "--cache-dir", "c", "--older-than", "30", "--dry-run"]
    )
    assert args.cache_command == "gc" and args.older_than == 30.0 and args.dry_run
    args = parser.parse_args(
        ["campaign", "--backend", "spool", "--spool", "dir", "--cache-dir", "c"]
    )
    assert args.backend == "spool" and args.spool == "dir"
    with pytest.raises(SystemExit) as exc_info:  # no backpressure knob
        parser.parse_args(["campaign", "--backend", "spool", "--max-inflight", "4"])
    assert exc_info.value.code == 2


def test_worker_status_reports_counts(tmp_path, capsys):
    WorkSpool(tmp_path / "spool")  # an existing spool reports its counts
    assert main(["worker", "--spool", str(tmp_path / "spool"), "--status"]) == 0
    assert "0 pending, 0 claimed, 0 done, 0 failed" in capsys.readouterr().out
    # ...but --status on a nonexistent path must error, not create a spool.
    assert main(["worker", "--spool", str(tmp_path / "typo"), "--status"]) == 2
    assert not (tmp_path / "typo").exists()


def test_worker_requires_cache_dir(tmp_path):
    # Misconfiguration follows the documented contract: exit 2, not 1.
    assert main(["worker", "--spool", str(tmp_path / "spool")]) == 2


@pytest.mark.parametrize("port", ["70000", "-5"])
def test_worker_rejects_an_out_of_range_metrics_port_before_opening_the_spool(
    tmp_path, capsys, port
):
    spool_dir = tmp_path / "spool"
    code = main(
        ["worker", "--spool", str(spool_dir), "--cache-dir", str(tmp_path / "cache"),
         "--drain", "--metrics-port", port]
    )
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: --metrics-port must be between 0 and 65535, got {port}"
    ]
    assert not spool_dir.exists()


@pytest.mark.parametrize(
    "option, value, named",
    [
        # A NaN lease is reclaimed by any peer at once; an infinite one never
        # expires, and its heartbeat's Event.wait overflows.
        ("--lease-ttl", "nan", "lease_ttl_s"),
        ("--lease-ttl", "inf", "lease_ttl_s"),
        ("--poll-interval", "nan", "poll_interval_s"),
        ("--poll-interval", "1e10", "poll_interval_s"),  # time.sleep overflows
        ("--idle-timeout", "nan", "idle_timeout_s"),  # never stops for idleness
        ("--idle-timeout", "inf", "idle_timeout_s"),
        ("--max-tasks", "0", "max_tasks"),  # would exit at once with nothing done
        ("--max-tasks", "-1", "max_tasks"),
        ("--batch-size", "0", "batch_size"),  # would fail at the first claim
    ],
)
def test_worker_refuses_unusable_durations_and_counts(tmp_path, capsys, option, value, named):
    code = main(
        ["worker", "--spool", str(tmp_path / "spool"), "--cache-dir", str(tmp_path / "cache"),
         "--drain", option, value]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and named in err[0], err
    assert not (tmp_path / "spool").exists()  # refused before the spool was opened


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_spool_campaign_refuses_a_non_finite_lease_ttl(tmp_path, capsys, value):
    spool_dir = tmp_path / "spool"
    code = main(
        ["campaign", "--preset", "smoke", "--num-runs", "1", "--backend", "spool",
         "--spool", str(spool_dir), "--cache-dir", str(tmp_path / "cache"),
         "--lease-ttl", value, "--spool-timeout", "0.5"]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "lease_ttl_s" in err[0], err
    assert not spool_dir.exists()  # refused before any task was queued


def test_worker_reports_a_busy_metrics_port_in_one_line(tmp_path, capsys):
    with socket.socket() as busy:
        busy.bind(("127.0.0.1", 0))
        busy.listen()
        port = busy.getsockname()[1]
        code = main(
            ["worker", "--spool", str(tmp_path / "spool"), "--cache-dir",
             str(tmp_path / "cache"), "--drain", "--metrics-port", str(port)]
        )
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot serve on 127.0.0.1:{port}: ")


def test_worker_drains_spool_and_campaign_resolves_from_cache(tmp_path, capsys):
    """Submitter-less choreography: spool the smoke campaign, drain it with a
    CLI worker, then re-run the campaign and watch it resolve purely from the
    shared cache — 0 local simulations."""
    spool_dir, cache_dir = str(tmp_path / "spool"), str(tmp_path / "cache")
    common = ["--num-runs", "1", "--horizon-days", "0.25", "--strategies", "least-waste"]

    # A drain-mode worker started concurrently is exercised in the
    # equivalence tests; here the CLI pieces run sequentially, so give the
    # submitter a pre-drained spool by running serial first (fills cache).
    assert main(["campaign", "--preset", "smoke", *common, "--cache-dir", cache_dir]) == 0
    capsys.readouterr()

    # Spool-backend re-run: everything is a cache hit, nothing is spooled.
    assert (
        main(
            ["campaign", "--preset", "smoke", *common, "--backend", "spool",
             "--spool", spool_dir, "--cache-dir", cache_dir, "--spool-timeout", "5"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert ", 0 simulation(s)" in out
    assert WorkSpool(spool_dir).status().drained

    # And a drain-mode CLI worker on the (empty) spool exits immediately.
    assert main(["worker", "--spool", spool_dir, "--cache-dir", cache_dir, "--drain"]) == 0
    assert "0 task(s) done" in capsys.readouterr().out


def test_campaign_spool_backend_requires_spool_dir(tmp_path, capsys):
    code = main(
        ["campaign", "--preset", "smoke", "--num-runs", "1",
         "--backend", "spool", "--cache-dir", str(tmp_path / "cache")]
    )
    assert code == 2
    assert "spool_dir" in capsys.readouterr().err


def test_cache_stats_and_gc_cycle(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert (
        main(
            ["campaign", "--preset", "smoke", "--num-runs", "1", "--horizon-days", "0.25",
             "--strategies", "least-waste", "--cache-dir", cache_dir]
        )
        == 0
    )
    capsys.readouterr()

    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries      : 4" in out  # 4 scenarios x 1 strategy x 1 run
    assert "2" in out  # current digest version is listed

    # Dry run reports but removes nothing.
    assert main(["cache", "gc", "--cache-dir", cache_dir, "--digest-version", "2",
                 "--dry-run"]) == 0
    assert "would remove 4" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries      : 4" in capsys.readouterr().out

    # --older-than 0 prunes everything written before "now".
    assert main(["cache", "gc", "--cache-dir", cache_dir, "--older-than", "0"]) == 0
    assert "removed 4" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    assert "entries      : 0" in capsys.readouterr().out


def test_cache_stats_rejects_a_missing_directory(tmp_path, capsys):
    """A typo'd --cache-dir must error, not create (and report) an empty cache."""
    assert main(["cache", "stats", "--cache-dir", str(tmp_path / "typo")]) == 2
    assert "no cache at" in capsys.readouterr().err
    assert not (tmp_path / "typo").exists()


def test_campaign_from_json_file(tmp_path, capsys):
    matrix = {
        "name": "json-sweep",
        "base": "smoke",
        "overrides": {
            "num_runs": 1,
            "horizon_days": 0.25,
            "strategies": ["least-waste"],
        },
        "axes": [
            {"name": "io", "key": "bandwidth_gbs", "values": [1.0, 4.0],
             "labels": ["weak", "strong"]},
        ],
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(matrix))
    assert main(["campaign", "--file", str(path)]) == 0
    out = capsys.readouterr().out
    assert "Campaign json-sweep" in out
    assert "io=weak" in out and "io=strong" in out


def test_campaign_from_toml_file_with_cli_overrides(tmp_path, capsys):
    pytest.importorskip("tomllib")
    path = tmp_path / "sweep.toml"
    path.write_text(
        'name = "toml-sweep"\n'
        'base = "smoke"\n'
        "[overrides]\n"
        "num_runs = 3\n"
        "horizon_days = 0.25\n"
        'strategies = ["least-waste"]\n'
        "[[axes]]\n"
        'name = "mtbf"\n'
        "[[axes.points]]\n"
        'label = "short"\n'
        "[axes.points.overrides]\n"
        "node_mtbf_years = 0.0438\n"
    )
    # The CLI's --num-runs beats the file's own overrides.
    assert main(["campaign", "--file", str(path), "--num-runs", "1"]) == 0
    out = capsys.readouterr().out
    assert "Campaign toml-sweep" in out and "1 runs each" in out
    assert "mtbf=short" in out


def test_campaign_file_errors_exit_nonzero(tmp_path, capsys):
    assert main(["campaign", "--file", str(tmp_path / "missing.toml")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "x", "base": "smoke", "bogus_key": 1}')
    assert main(["campaign", "--file", str(bad)]) == 2
    assert "bogus_key" in capsys.readouterr().err


def test_campaign_file_refuses_a_vanishing_node_mtbf(tmp_path, capsys):
    # The failure trace is drawn up front: without the bound this MTBF ends
    # in a numpy traceback, and one of 1e-9 years exhausts memory.
    path = tmp_path / "tiny-mtbf.json"
    path.write_text(json.dumps(
        {"name": "p", "base": "smoke",
         "overrides": {"num_runs": 1, "strategies": ["least-waste"], "node_mtbf_years": 1e-300}}
    ))
    assert main(["campaign", "--file", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "failures" in err[0] and "100000" in err[0], err


def test_main_reports_library_errors_on_stderr(capsys):
    # A ReproError inside a command must exit 2 with a one-line message.
    assert main(["campaign", "--preset", "smoke", "--num-runs", "1",
                 "--backend", "spool"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
