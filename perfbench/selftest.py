"""Tests of the benchmark itself, at smoke size.

Run explicitly (the file is not collected by the repository's test suite)::

    python3 -m pytest perfbench/selftest.py -q
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", HERE / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


run = _load("run")
tracer = _load("tracer")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False,
    )


@pytest.fixture(scope="module")
def smoke() -> dict:
    done = _bench("--workload", "all", "--smoke", "--seconds", "1")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    results = json.loads((run.WORK_ROOT / "results-all-seed0.json").read_text())["results"]
    return {"last": last, "results": {(r["workload"], r["trace"]): r for r in results}}


def test_smoke_runs_every_workload_correctly(smoke):
    last = smoke["last"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] > 0
    for workload in run.WORKLOADS:
        plain = smoke["results"][(workload, 0)]["metrics"]
        assert set(plain) == set(run.END_TO_END)
        assert all(metric["value"] > 0 for metric in plain.values())
        layers = smoke["results"][(workload, 1)]["metrics"]
        assert set(layers) == set(run.PER_LAYER)


def test_layers_separate_the_workloads(smoke):
    def layer(workload: str, name: str) -> float:
        return smoke["results"][(workload, 1)]["metrics"][name]["value"]

    assert layer("warm-replay", "exec.seeds_simulated") == 0
    assert layer("warm-replay", "store.hit_ratio") == 1.0
    assert layer("cielo-cold", "store.put_calls") > 0
    for workload in run.WORKLOADS:
        claimed = layer(workload, "distributed.batches_claimed")
        assert (claimed > 0) == (workload == "spool-fleet")


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "cielo-cold", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_failed_cells_counts_missing_and_changed_rows():
    cells = ["a/x", "a/y", "b/x"]
    rows = {"a/x": "1", "a/y": "2"}
    assert run.failed_cells(rows, cells) == 1
    assert run.failed_cells(rows, cells, same_as={"a/x": "1", "a/y": "3", "b/x": "4"}) == 2
    assert run.failed_cells(None, cells) == 3
    digests = {"a/x": run.row_digest("1"), "a/y": run.row_digest("2"), "b/x": ""}
    assert run.failed_cells({**rows, "b/x": "5"}, cells, digests=digests) == 1


def test_matrix_cells_follow_campaign_naming():
    matrix = run.make_matrix("cielo", 7, smoke=False)
    cells = matrix.cells()
    assert len(cells) == 4
    assert cells[0] == "io=40,mtbf=2/oblivious-daly"
    assert matrix.document()["overrides"]["base_seed"] == 7


def test_parse_importtime_sums_self_time_per_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:        50 |         50 |     repro.units",
        "import time:        25 |        900 | repro",
    ])
    split = run.parse_importtime(stderr)
    assert split["import.modules"] == 4
    assert split["import.numpy_s"] == pytest.approx(300e-6)
    assert split["import.repro_s"] == pytest.approx(75e-6)
    assert split["import.total_s"] == pytest.approx(375e-6)
    assert split["import.scipy_s"] == 0.0


def test_self_time_subtracts_child_spans():
    spans = [
        ["exec.map_seeds", 0.0, 10.0, -1, None],
        ["store.get", 1.0, 2.0, 0, 1],
        ["simulation.run", 2.0, 8.0, 0, 100],
        ["jobsched.dispatch", 3.0, 4.0, 2, None],
        ["store.probe", 8.0, 9.0, 0, None],
        ["store.get", 8.1, 8.9, 4, 0],
    ]
    metrics, dropped = run.span_metrics([{"spans": spans, "counts": {"sim.push": 5}, "dropped": []}])
    assert dropped == []
    assert metrics["exec.dispatch_self_s"] == pytest.approx(2.0)
    assert metrics["sim.engine_self_s"] == pytest.approx(5.0)
    assert metrics["store.get_calls"] == 1  # the get inside a probe is the probe's
    assert metrics["store.hit_ratio"] == 1.0
    assert metrics["simulation.events_per_s"] == pytest.approx(100 / 6.0)
    assert metrics["sim.push_calls"] == 5


def test_a_vanished_name_is_dropped_not_fatal():
    recorder = tracer.Recorder()
    recorder.install("store.put", "json:NoSuchClass.put")
    recorder.install("sim.push", "no_such_module_here:f", count=True)
    assert [entry.split(":", 1)[0] for entry in recorder.dropped] == ["store.put", "sim.push"]
    trace = {"spans": [], "counts": {}, "dropped": recorder.dropped}
    metrics, dropped = run.span_metrics([trace])
    assert dropped == ["sim.push", "store.put"]
    assert "store.put_calls" not in metrics and "sim.push_calls" not in metrics
