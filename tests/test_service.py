"""The campaign-results HTTP service (repro.service) and its CLI front door.

Exercised over real sockets (port 0, loopback) with urllib: submit a
campaign, poll it to completion, and check that everything the API serves
— summaries, CSV, cell listings, waste decompositions — is produced by the
same code paths as the offline CLI, so a served CSV is byte-identical to
``coopckpt campaign --csv`` over the same cache.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.errors import ConfigurationError
from repro.cli import main
from repro.scenarios.report import campaign_to_csv
from repro.scenarios.runner import CampaignRunner
from repro.service import CampaignService, JobManager, campaign_from_request
from repro.store import open_store

# The same schema Campaign.from_file reads: base preset + overrides + axes.
TOY_MATRIX = {
    "name": "toy-served",
    "base": "smoke",
    "overrides": {
        "num_runs": 2,
        "horizon_days": 0.5,
        "strategies": ["ordered-daly", "least-waste"],
    },
    "axes": [{"name": "io", "key": "bandwidth_gbs", "values": [1.0, 4.0]}],
}


@pytest.fixture
def service(tmp_path):
    store = open_store("sqlite", tmp_path / "db.sqlite")
    svc = CampaignService(JobManager(store), port=0).start()
    yield svc
    svc.close()
    store.close()


def _get(service, path):
    with urllib.request.urlopen(service.url + path) as response:
        return response.status, response.read()


def _get_json(service, path):
    status, body = _get(service, path)
    return status, json.loads(body)


def _post_json(service, path, payload):
    request = urllib.request.Request(
        service.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _submit_and_wait(service, payload, timeout_s: float = 60.0) -> dict:
    status, snapshot = _post_json(service, "/v1/jobs", payload)
    assert status == 202
    deadline = time.time() + timeout_s
    while snapshot["state"] in ("queued", "running"):
        assert time.time() < deadline, f"job stuck: {snapshot}"
        time.sleep(0.05)
        _, snapshot = _get_json(service, f"/v1/jobs/{snapshot['id']}")
    return snapshot


# ---------------------------------------------------------------- lifecycle
def test_healthz_metrics_and_presets(service):
    assert _get_json(service, "/healthz") == (200, {"ok": True})
    status, metrics = _get_json(service, "/metrics")
    assert status == 200
    assert metrics["store"]["kind"] == "sqlite"
    assert metrics["jobs"] == {}
    status, presets = _get_json(service, "/v1/presets")
    assert "smoke" in presets["presets"]


def test_submitted_campaign_runs_to_done_with_full_progress(service):
    snapshot = _submit_and_wait(service, {"campaign": TOY_MATRIX})
    assert snapshot["state"] == "done", snapshot
    assert snapshot["campaign"] == "toy-served"
    assert snapshot["cells_done"] == snapshot["cells_total"] == 4
    assert snapshot["seeds_simulated"] == 8 and snapshot["seeds_cached"] == 0
    assert snapshot["finished_at"] >= snapshot["started_at"]
    status, listing = _get_json(service, "/v1/jobs")
    assert status == 200 and len(listing["jobs"]) == 1

    # Resubmitting the identical campaign is served entirely from the store.
    rerun = _submit_and_wait(service, {"campaign": TOY_MATRIX})
    assert rerun["state"] == "done"
    assert rerun["seeds_cached"] == 8 and rerun["seeds_simulated"] == 0


def test_served_result_and_csv_match_offline_run(service, tmp_path):
    from repro.scenarios.campaign import Campaign

    snapshot = _submit_and_wait(service, {"campaign": TOY_MATRIX})
    assert snapshot["state"] == "done", snapshot
    job_id = snapshot["id"]
    status, result = _get_json(service, f"/v1/jobs/{job_id}/result")
    assert status == 200
    assert [o["scenario"] for o in result["outcomes"]] == ["io=1", "io=4"]

    status, served_csv = _get(service, f"/v1/jobs/{job_id}/csv")
    assert status == 200

    # The offline reference: same campaign, fresh cacheless run, rendered by
    # the same exporter the `campaign --csv` command calls.
    offline = CampaignRunner().run(
        Campaign.from_mapping(TOY_MATRIX, source="<test>")
    )
    assert served_csv.decode("utf-8") == campaign_to_csv(offline)
    for outcome in offline.outcomes:
        served = next(
            o for o in result["outcomes"] if o["scenario"] == outcome.scenario.name
        )
        for strategy, summary in outcome.summaries.items():
            assert served["summaries"][strategy] == pytest.approx(
                summary.as_dict(), abs=0
            )


def test_cells_listing_filters_and_values(service):
    snapshot = _submit_and_wait(service, {"campaign": TOY_MATRIX})
    job_id = snapshot["id"]
    status, payload = _get_json(service, f"/v1/jobs/{job_id}/cells")
    assert status == 200 and len(payload["cells"]) == 4
    cell = payload["cells"][0]
    assert set(cell) >= {"scenario", "strategy", "spec", "digest", "stats", "seeds", "values"}
    assert len(cell["values"]) == 2  # one stored value per derived seed
    assert all(value is not None for value in cell["values"].values())
    assert sum(c["best"] for c in payload["cells"]) == 2  # one winner per scenario

    _, by_scenario = _get_json(service, f"/v1/jobs/{job_id}/cells?scenario=io%3D1")
    assert {c["scenario"] for c in by_scenario["cells"]} == {"io=1"}
    _, by_strategy = _get_json(service, f"/v1/jobs/{job_id}/cells?strategy=least-waste")
    assert {c["strategy"] for c in by_strategy["cells"]} == {"least-waste"}
    seed = cell["seeds"][0]
    _, by_seed = _get_json(service, f"/v1/jobs/{job_id}/cells?seed={seed}")
    assert by_seed["cells"] and all(c["seeds"] == [seed] for c in by_seed["cells"])
    _, none = _get_json(service, f"/v1/jobs/{job_id}/cells?strategy=unknown")
    assert none["cells"] == []


def test_trace_endpoint_serves_a_consistent_decomposition(service):
    snapshot = _submit_and_wait(service, {"campaign": TOY_MATRIX})
    job_id = snapshot["id"]
    path = f"/v1/jobs/{job_id}/trace?scenario=io%3D1&strategy=least-waste&rep=0"
    status, decomposition = _get_json(service, path)
    assert status == 200
    assert decomposition["scenario"] == "io=1"
    assert decomposition["strategy"] == "least-waste"
    categories = decomposition["categories"]
    useful = categories["compute"] + categories["base_io"]
    waste = sum(
        categories[name]
        for name in ("io_delay", "checkpoint", "checkpoint_wait", "recovery", "lost_work")
    )
    # The decomposition's recomputed waste ratio repr-matches the stored
    # per-seed value the cells endpoint serves for the same repetition.
    _, cells = _get_json(
        service, f"/v1/jobs/{job_id}/cells?scenario=io%3D1&strategy=least-waste"
    )
    (cell,) = cells["cells"]
    recorded = cell["values"][str(cell["seeds"][0])]
    assert repr(waste / (useful + waste)) == repr(recorded)


def test_preset_submission_with_overrides(service):
    snapshot = _submit_and_wait(
        service,
        {"preset": "smoke", "num_runs": 1, "horizon_days": 1, "strategies": ["least-waste"]},
    )
    assert snapshot["state"] == "done", snapshot
    assert snapshot["campaign"] == "smoke"
    _, result = _get_json(service, f"/v1/jobs/{snapshot['id']}/result")
    assert result["strategies"] == ["least-waste"]


# ------------------------------------------------------------------ errors
def _expect_error(service, path, *, method="GET", data=None):
    request = urllib.request.Request(
        service.url + path, data=data, method=method
    )
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(request)
    return excinfo.value.code, json.loads(excinfo.value.read())


def test_http_error_statuses(service):
    code, body = _expect_error(service, "/v1/jobs/job-9999")
    assert code == 404 and "no job" in body["error"]
    code, _ = _expect_error(service, "/nope")
    assert code == 404
    code, body = _expect_error(service, "/v1/jobs", method="POST", data=b"{}")
    assert code == 400 and "exactly one campaign source" in body["error"]
    code, _ = _expect_error(service, "/v1/jobs", method="POST", data=b"not json")
    assert code == 400
    code, body = _expect_error(
        service,
        "/v1/jobs",
        method="POST",
        data=json.dumps({"preset": "smoke", "num_runs": -1}).encode(),
    )
    assert code == 400 and "num_runs" in body["error"]
    # Trace endpoint insists on its addressing parameters.
    done = _submit_and_wait(service, {"campaign": TOY_MATRIX})
    code, body = _expect_error(service, f"/v1/jobs/{done['id']}/trace")
    assert code == 400 and "scenario" in body["error"]


@pytest.mark.parametrize("value", ["abc", float("nan"), float("inf")])
def test_bad_numbers_in_a_submitted_matrix_are_a_400(service, value):
    matrix = {**TOY_MATRIX, "overrides": {**TOY_MATRIX["overrides"], "num_nodes": value}}
    code, body = _expect_error(
        service, "/v1/jobs", method="POST", data=json.dumps({"campaign": matrix}).encode()
    )
    assert code == 400 and "num_nodes" in body["error"]
    nan_cell = {**TOY_MATRIX, "axes": [{"name": "io", "key": "bandwidth_gbs", "values": [value]}]}
    code, body = _expect_error(
        service, "/v1/jobs", method="POST", data=json.dumps({"campaign": nan_cell}).encode()
    )
    assert code == 400 and "bandwidth_gbs" in body["error"]


def test_campaign_from_request_validates_shapes():
    with pytest.raises(ConfigurationError, match="exactly one campaign source"):
        campaign_from_request({"preset": "smoke", "toml": "x"})
    with pytest.raises(ConfigurationError, match="only apply to presets"):
        campaign_from_request({"campaign": TOY_MATRIX, "num_runs": 5})
    with pytest.raises(ConfigurationError, match="positive integer"):
        campaign_from_request({"preset": "smoke", "num_runs": 0})
    with pytest.raises(ConfigurationError, match="array of spec strings"):
        campaign_from_request({"preset": "smoke", "strategies": "least-waste"})
    with pytest.raises(ConfigurationError, match="cannot parse submitted TOML"):
        campaign_from_request({"toml": "= not toml ="})
    campaign = campaign_from_request({"toml": 'name = "t"\nbase = "smoke"\n'})
    assert campaign.name == "t"


def test_failed_job_reports_its_error(service):
    # A negative warmup passes campaign construction but blows up when the
    # job thread builds the first simulation — the job must land in
    # 'failed' with the error recorded, never kill the service.
    broken = {
        **TOY_MATRIX,
        "overrides": {**TOY_MATRIX["overrides"], "warmup_days": -1.0},
    }
    snapshot = _submit_and_wait(service, {"campaign": broken})
    assert snapshot["state"] == "failed", snapshot
    assert snapshot["error"]
    code, _ = _expect_error(service, f"/v1/jobs/{snapshot['id']}/csv")
    assert code == 409  # no result to export
    # The service is still healthy afterwards.
    assert _get_json(service, "/healthz") == (200, {"ok": True})


# ------------------------------------------------------------------ CLI
def test_serve_cli_misconfigurations_exit_2(tmp_path, capsys):
    cases = [
        ["serve", "--cache-dir", str(tmp_path / "c"), "--port", "99999"],
        ["serve", "--cache-dir", str(tmp_path / "c"), "--workers", "0"],
        ["serve", "--cache-dir", str(tmp_path / "c"), "--store", "sqlte"],
        ["serve", "--cache-dir", str(tmp_path / "c"), "--host", "256.0.0.1"],
        ["cache", "stats", "--cache-dir", str(tmp_path / "absent")],
        ["cache", "stats", "--cache-dir", str(tmp_path), "--store", "filesys"],
        ["cache", "export", "--cache-dir", str(tmp_path / "absent"), "--to", str(tmp_path / "o")],
        ["campaign", "--preset", "smoke", "--store", "sqlite"],  # no --cache-dir
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), (argv, err)
        assert "Traceback" not in err
    # The typo'd kind comes back with a suggestion.
    main(["cache", "stats", "--cache-dir", str(tmp_path), "--store", "sqlte"])
    assert "did you mean 'sqlite'" in capsys.readouterr().err


def test_busy_port_is_a_clean_error(tmp_path, capsys):
    store = open_store("sqlite", tmp_path / "db.sqlite")
    blocker = CampaignService(JobManager(store), port=0)
    try:
        code = main(
            [
                "serve",
                "--cache-dir",
                str(tmp_path / "other.sqlite"),
                "--store",
                "sqlite",
                "--port",
                str(blocker.port),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot serve on 127.0.0.1:{blocker.port}" in err
    finally:
        blocker.close()
        store.close()


def test_cache_export_import_cli_roundtrip(tmp_path, capsys):
    source = open_store("filesystem", tmp_path / "fs")
    source.put("a" * 64, "least-waste", 1, 0.25)
    source.put_trace("a" * 64, "least-waste", 1, {"waste": 0.25})
    source.close()

    assert main(
        ["cache", "export", "--cache-dir", str(tmp_path / "fs"), "--to", str(tmp_path / "db.sqlite")]
    ) == 0
    out = capsys.readouterr().out
    assert "copied 1 entry, 1 trace sidecar(s)" in out

    assert main(
        ["cache", "stats", "--cache-dir", str(tmp_path / "db.sqlite"), "--store", "sqlite"]
    ) == 0
    assert "entries      : 1" in capsys.readouterr().out

    assert main(
        ["cache", "import", "--cache-dir", str(tmp_path / "back"), "--from", str(tmp_path / "db.sqlite")]
    ) == 0
    capsys.readouterr()
    entry = tmp_path / "fs" / "aa" / ("a" * 64) / "least-waste" / "1.json"
    twin = tmp_path / "back" / "aa" / ("a" * 64) / "least-waste" / "1.json"
    assert twin.read_bytes() == entry.read_bytes()
    trace = entry.with_suffix(".trace")
    assert trace.with_name(trace.name).read_bytes() == (
        tmp_path / "back" / "aa" / ("a" * 64) / "least-waste" / "1.trace"
    ).read_bytes()


def test_hostile_overrides_are_a_400_at_submit(service):
    """Overrides that used to answer 500 or fail inside the job are refused at submit."""
    hostile = [
        ("base_seed", "abc"), ("base_seed", -1), ("base_seed", [1]), ("base_seed", 1.5),
        ("workload", "abc"), ("workload", ["EAP"]), ("strategies", None),
        ("failure_model", None), ("bandwidth_gbs", True), ("horizon_days", True),
        ("num_runs", True),
    ]
    for key, value in hostile:
        matrix = {**TOY_MATRIX, "overrides": {**TOY_MATRIX["overrides"], key: value}}
        code, body = _expect_error(
            service, "/v1/jobs", method="POST", data=json.dumps({"campaign": matrix}).encode()
        )
        assert code == 400 and key in body["error"], (key, value, code, body)
    assert service.manager.jobs() == []
