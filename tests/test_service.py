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
from repro.scenarios.runner import run_campaign
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
def test_job_counters_with_a_pool_and_one_cell_already_stored(tmp_path):
    """The pool runs the whole campaign in one dispatch: cells finish in any
    order, yet every cell is counted once and every seed exactly once."""
    from repro.exec.runner import ParallelRunner
    from repro.scenarios.presets import make_campaign
    from repro.stats.montecarlo import derive_seeds

    campaign = make_campaign("smoke")
    scenario = campaign.scenarios()[0]
    store = open_store("sqlite", tmp_path / "db.sqlite")
    try:
        ParallelRunner(cache=store).map_seeds(
            scenario.config(scenario.strategies[0]),
            derive_seeds(scenario.base_seed, scenario.num_runs),
        )
        job = JobManager(store, workers=2).submit(campaign)
        deadline = time.time() + 120.0
        while job.snapshot()["state"] in ("queued", "running"):
            assert time.time() < deadline, job.snapshot()
            time.sleep(0.05)
        snapshot = job.snapshot()
    finally:
        store.close()
    seeds = sum(len(s.strategies) * s.num_runs for s in campaign.scenarios())
    assert snapshot["state"] == "done", snapshot
    assert snapshot["cells_done"] == snapshot["cells_total"] == 8
    assert snapshot["seeds_cached"] == scenario.num_runs
    assert snapshot["seeds_cached"] + snapshot["seeds_simulated"] == seeds


def _wait_until(predicate, timeout_s: float = 120.0) -> None:
    deadline = time.time() + timeout_s
    while not predicate():
        assert time.time() < deadline, "timed out"
        time.sleep(0.02)


def test_jobs_run_one_at_a_time(tmp_path, monkeypatch):
    """A later job waits as 'queued' while one runs, and starts from the
    store the first one warmed; a failed job frees the slot too."""
    import threading

    from repro.scenarios.presets import make_campaign

    gate = threading.Event()

    def gated_run_campaign(campaign, runner=None):
        assert gate.wait(120.0)
        return run_campaign(campaign, runner)

    monkeypatch.setattr("repro.service.jobs.run_campaign", gated_run_campaign)
    store = open_store("sqlite", tmp_path / "db.sqlite")
    manager = JobManager(store)
    try:
        jobs = [manager.submit(make_campaign("smoke", num_runs=1)) for _ in range(2)]
        _wait_until(lambda: any(job.snapshot()["state"] == "running" for job in jobs))
        time.sleep(0.1)  # room for a second job to start, were it allowed to
        assert sorted(job.snapshot()["state"] for job in jobs) == ["queued", "running"]
        gate.set()
        _wait_until(lambda: all(job.snapshot()["state"] == "done" for job in jobs))
        first, second = (job.snapshot() for job in jobs)
        assert first["started_at"] <= second["started_at"]
        assert first["seeds_simulated"] == 8
        assert second["seeds_simulated"] == 0 and second["seeds_cached"] == 8

        broken = {**TOY_MATRIX, "overrides": {**TOY_MATRIX["overrides"], "warmup_days": -1.0}}
        failed = manager.submit(campaign_from_request({"campaign": broken}))
        _wait_until(lambda: failed.snapshot()["state"] == "failed")
        after = manager.submit(make_campaign("smoke", num_runs=1))
        _wait_until(lambda: after.snapshot()["state"] == "done")
    finally:
        gate.set()
        store.close()


def test_queued_jobs_share_one_thread_and_start_in_submission_order(tmp_path, monkeypatch):
    """Jobs queued behind a running one hold no thread of their own, and
    the one thread that runs them takes them in submission order."""
    import threading

    from repro.scenarios.presets import make_campaign

    gate = threading.Event()
    started: list[object] = []

    def gated_run_campaign(campaign, runner=None):
        started.append(campaign)
        assert gate.wait(120.0)
        return run_campaign(campaign, runner)

    monkeypatch.setattr("repro.service.jobs.run_campaign", gated_run_campaign)
    store = open_store("sqlite", tmp_path / "db.sqlite")
    manager = JobManager(store)
    threads_before = threading.active_count()
    try:
        campaigns = [make_campaign("smoke", num_runs=1) for _ in range(11)]
        jobs = [manager.submit(campaign) for campaign in campaigns]
        _wait_until(lambda: jobs[0].snapshot()["state"] == "running")
        assert threading.active_count() <= threads_before + 1
        assert [job.snapshot()["state"] for job in jobs[1:]] == ["queued"] * 10
        gate.set()
        _wait_until(lambda: all(job.snapshot()["state"] == "done" for job in jobs))
        assert started == campaigns
        starts = [job.snapshot()["started_at"] for job in jobs]
        assert starts == sorted(starts)
    finally:
        gate.set()
        store.close()


def test_concurrent_submissions_run_every_job_once(tmp_path, monkeypatch):
    """Submitters racing the queue's one thread, including the moment it
    finds the queue empty and ends, lose no job and run none twice.  Each
    round ends with the queue drained, so its last submission is the one a
    lost wake-up would strand."""
    import sys
    import threading

    from repro.scenarios.presets import make_campaign

    ran: list[object] = []
    monkeypatch.setattr(
        "repro.service.jobs.run_campaign", lambda campaign, runner=None: ran.append(campaign)
    )
    store = open_store("sqlite", tmp_path / "db.sqlite")
    manager = JobManager(store)
    campaign = make_campaign("smoke", num_runs=1)

    def submit_some():
        for _ in range(2):
            manager.submit(campaign)
            time.sleep(0.0005)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            submitters = [threading.Thread(target=submit_some) for _ in range(6)]
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            _wait_until(
                lambda: all(job.snapshot()["state"] == "done" for job in manager.jobs()),
                timeout_s=30.0,
            )
    finally:
        sys.setswitchinterval(interval)
        store.close()
    assert len(manager.jobs()) == len(ran) == 120


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
    offline = run_campaign(Campaign.from_mapping(TOY_MATRIX, source="<test>"))
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
    assert len(cell["values"]) == 2  # one measured value per seed
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


def test_cells_list_the_values_the_job_measured_even_unseeded_or_after_the_store_empties(
    tmp_path,
):
    """``/cells`` reads the job's own outcome: an unseeded job lists the
    seeds it drew, each cell's values are the ones its stats summarise,
    and emptying the store afterwards changes no listing."""
    from repro.stats.summary import summarize

    store = open_store("filesystem", tmp_path / "cache")
    unseeded = {**TOY_MATRIX, "overrides": {**TOY_MATRIX["overrides"], "base_seed": None}}
    try:
        with CampaignService(JobManager(store), port=0).start() as service:
            for matrix in (TOY_MATRIX, unseeded):
                snapshot = _submit_and_wait(service, {"campaign": matrix})
                assert snapshot["state"] == "done", snapshot
                cells_path = f"/v1/jobs/{snapshot['id']}/cells"
                _, listing = _get_json(service, cells_path)
                assert len(listing["cells"]) == 4
                for cell in listing["cells"]:
                    assert len(cell["seeds"]) == TOY_MATRIX["overrides"]["num_runs"]
                    assert list(cell["values"]) == [str(seed) for seed in cell["seeds"]]
                    values = list(cell["values"].values())
                    assert summarize(values).as_dict() == cell["stats"]
                for entry in (tmp_path / "cache").glob("*/*/*/*.json"):
                    entry.unlink()
                assert _get_json(service, cells_path) == (200, listing)
    finally:
        store.close()


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
    # The decomposition's recomputed waste ratio repr-matches the per-seed
    # value the cells endpoint serves for the same repetition.
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


def test_an_unknown_body_key_is_a_400_that_names_it(service):
    """An override nested where no override is read must be refused, not
    ignored: this body used to run ``smoke`` at its default two runs."""
    code, body = _expect_error(
        service,
        "/v1/jobs",
        method="POST",
        data=json.dumps({"preset": "smoke", "overrides": {"num_runs": 5}}).encode(),
    )
    assert code == 400 and "'overrides'" in body["error"], body
    assert service.manager.jobs() == []
    snapshot = _submit_and_wait(service, {"preset": "smoke", "num_runs": 5})
    assert snapshot["state"] == "done", snapshot
    _, cells = _get_json(service, f"/v1/jobs/{snapshot['id']}/cells")
    assert cells["cells"] and all(len(cell["seeds"]) == 5 for cell in cells["cells"])


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


def test_metrics_stay_scrapeable_when_a_counter_raises(service, monkeypatch):
    def counts() -> dict:
        raise RuntimeError("job table gone")

    monkeypatch.setattr(service.manager, "counts", counts)
    assert _get_json(service, "/metrics") == (200, {"error": "RuntimeError('job table gone')"})
    assert _get_json(service, "/healthz") == (200, {"ok": True})
    code, body = _expect_error(service, "/")  # only the worker serves metrics on /
    assert code == 404 and "unknown path '/'" in body["error"]


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


def test_sizes_over_the_bounds_are_a_400_at_submit(service):
    for payload, key in [
        ({"preset": "smoke", "num_runs": 100_001}, "num_runs"),
        ({"preset": "smoke", "num_runs": 10**20}, "num_runs"),
        ({"campaign": {**TOY_MATRIX, "overrides": {"num_nodes": 1_000_001}}}, "num_nodes"),
        ({"campaign": {**TOY_MATRIX, "overrides": {"num_nodes": 10**9}}}, "num_nodes"),
    ]:
        code, body = _expect_error(
            service, "/v1/jobs", method="POST", data=json.dumps(payload).encode()
        )
        assert code == 400 and f"{key} must be at most" in body["error"], (payload, body)
    assert service.manager.jobs() == []


def test_huge_numbers_and_deep_nesting_are_a_400_at_submit(service):
    """Bodies that used to answer 500: an int too large for a float, a
    boolean read as one day, and documents nested past the parser's depth."""
    deep = "[" * 300_000 + "]" * 300_000
    for payload in [
        {"campaign": {**TOY_MATRIX, "overrides": {"horizon_days": 10**400}}},
        {"campaign": {**TOY_MATRIX, "overrides": {"cooldown_days": 10**400}}},
        {"preset": "smoke", "horizon_days": 10**400},
        {"preset": "smoke", "horizon_days": True},
        {"preset": "smoke", "num_runs": True},
        {"toml": f'name = "deep"\nx = {deep}\n'},
    ]:
        code, body = _expect_error(
            service, "/v1/jobs", method="POST", data=json.dumps(payload).encode()
        )
        assert code == 400, (str(payload)[:80], body)
    code, body = _expect_error(
        service, "/v1/jobs", method="POST", data=f'{{"campaign": {deep}}}'.encode()
    )
    assert code == 400 and "not valid JSON" in body["error"]
    assert service.manager.jobs() == []


def test_a_refused_huge_value_gives_a_short_400(service):
    """A 4 300-digit number, the longest integer json parses, is echoed by
    its head only: the 400 body stays short and still names the key."""
    for key in ("horizon_days", "num_runs", "bandwidth_gbs"):
        payload = {"campaign": {**TOY_MATRIX, "overrides": {key: 10**4299}}}
        code, body = _expect_error(
            service, "/v1/jobs", method="POST", data=json.dumps(payload).encode()
        )
        assert code == 400 and key in body["error"], (key, body["error"][:300])
        assert len(body["error"]) < 200, body["error"][:300]
    assert service.manager.jobs() == []


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



def test_long_names_keys_paths_and_ids_give_short_errors(service, tmp_path, capsys):
    """A 5 000-character name, key or preset, or a 10 000-character path or
    job id, is echoed by its head only: each refusal is one short line that
    says what was refused."""
    long = "x" * 5000
    matrices = [
        ({**TOY_MATRIX, "axes": [{"name": long, "key": "horizon_days", "values": [-1]}]},
         "axis name"),
        ({**TOY_MATRIX, "axes": [{"name": "io", "points": [{"label": long}]}]}, "point label"),
        ({**TOY_MATRIX, "overrides": {"name": long}}, "scenario name"),
        ({**TOY_MATRIX, "name": long}, "campaign name"),
        ({**TOY_MATRIX, long: 1}, "unknown campaign key"),
        (
            {**TOY_MATRIX, "overrides": {"strategies": ["least-waste[" + long + "]"]}},
            "malformed strategy spec",
        ),
    ]
    matrix_file = tmp_path / "long.json"
    for matrix, what in matrices:
        matrix_file.write_text(json.dumps(matrix))
        assert main(["campaign", "--file", str(matrix_file)]) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 300 and what in err, err[:300]
        code, body = _expect_error(
            service, "/v1/jobs", method="POST", data=json.dumps({"campaign": matrix}).encode()
        )
        assert code == 400 and len(body["error"]) < 300 and what in body["error"], body
    code, body = _expect_error(
        service, "/v1/jobs", method="POST", data=json.dumps({"preset": long}).encode()
    )
    assert code == 400 and len(body["error"]) < 300 and "unknown campaign" in body["error"]
    for path, what in [
        ("/" + long * 2, "unknown path"),
        ("/v1/jobs/" + long * 2, "no job"),
        ("/v1/jobs/job-0001/result/" + long * 2, "unknown path"),
    ]:
        code, body = _expect_error(service, path)
        assert code == 404 and len(body["error"]) < 300 and what in body["error"], body
    assert service.manager.jobs() == []
    assert main(["trace", "--campaign", long]) == 2
    err = capsys.readouterr().err
    assert len(err.encode()) < 300 and "unknown campaign" in err, err[:300]
    done = _submit_and_wait(service, {"campaign": TOY_MATRIX})
    code, body = _expect_error(
        service, f"/v1/jobs/{done['id']}/trace?scenario={long}&strategy=least-waste"
    )
    assert code == 400 and len(body["error"]) < 300 and "no scenario named" in body["error"]


@pytest.mark.parametrize(
    "strategies, first",
    [
        (["least-waste"] * 5000, "'least-waste' is selected 5000 times"),
        (
            [f"least-waste[mtbf_bias={bias}]" for bias in range(2, 2502)] * 2,
            "'least-waste[mtbf_bias=2]' is selected 2 times",
        ),
    ],
    ids=["one-strategy-5000-times", "2500-strategies-twice"],
)
def test_a_repeated_strategy_gives_a_short_error(service, strategies, first):
    """A strategy list that repeats itself is refused by its first repeated
    strategy and a count, not by echoing the whole list."""
    request = {"preset": "smoke", "strategies": strategies}
    with pytest.raises(ConfigurationError) as excinfo:
        campaign_from_request(request)
    message = str(excinfo.value)
    assert len(message) < 300 and "twice" in message and first in message, message[:300]
    code, body = _expect_error(
        service, "/v1/jobs", method="POST", data=json.dumps(request).encode()
    )
    assert code == 400 and body["error"] == message
    assert service.manager.jobs() == []


# ------------------------------------------------------------------ CLI
def _serve(cache_dir):
    """``coopckpt serve --workers 2`` on a filesystem store, as a child process."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--workers", "2", "--port", "0",
         "--cache-dir", str(cache_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _served_job(process, body):
    """Submit ``body`` to a ``_serve`` child; return its URL and the job's id."""
    url = process.stdout.readline().split()[4]  # "serving campaign results on <url> (...)"
    request = urllib.request.Request(url + "/v1/jobs", data=json.dumps(body).encode(), method="POST")
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return url, json.loads(response.read())["id"]


def _served_snapshot(url, job_id):
    with urllib.request.urlopen(f"{url}/v1/jobs/{job_id}", timeout=10.0) as response:
        return json.loads(response.read())


def test_serve_stopped_mid_job_keeps_whole_entries_and_resumes_from_them(tmp_path):
    """Ctrl-C while a job simulates: ``serve`` exits 130 within 10 s, every
    stored entry is whole, and the same campaign resubmitted to a restarted
    ``serve`` finishes, serving at least those entries from the store."""
    import signal

    from repro.store.base import parse_entry

    cache_dir = tmp_path / "cache"
    body = {"preset": "cielo-reference", "num_runs": 2, "horizon_days": 2}
    with _serve(cache_dir) as first:
        try:
            url, job_id = _served_job(first, body)
            seen = []

            def simulating():
                seen.append(_served_snapshot(url, job_id))
                return seen[-1]["seeds_simulated"] > 0

            _wait_until(simulating, 60.0)
            assert seen[-1]["state"] == "running", seen[-1]  # stopped mid-job
            first.send_signal(signal.SIGINT)
            assert first.wait(timeout=10.0) == 130
        finally:
            first.kill()
    entries = sorted(cache_dir.glob("*/*/*/*.json"))
    assert entries
    for entry in entries:
        assert parse_entry(entry.read_text())[1] == "2", entry

    with _serve(cache_dir) as second:
        try:
            url, job_id = _served_job(second, body)
            _wait_until(
                lambda: _served_snapshot(url, job_id)["state"] in ("done", "failed"), 120.0
            )
            snapshot = _served_snapshot(url, job_id)
            second.send_signal(signal.SIGINT)
            assert second.wait(timeout=10.0) == 130
        finally:
            second.kill()
    assert snapshot["state"] == "done", snapshot
    assert snapshot["seeds_cached"] >= len(entries)


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


def test_out_of_range_port_is_a_configuration_error(tmp_path):
    store = open_store("sqlite", tmp_path / "db.sqlite")
    try:
        with pytest.raises(ConfigurationError, match="cannot serve on 127.0.0.1:70000"):
            CampaignService(JobManager(store), port=70000)
    finally:
        store.close()


def test_cache_export_import_cli_roundtrip(tmp_path, capsys):
    source = open_store("filesystem", tmp_path / "fs")
    source.put("a" * 64, "least-waste", 1, 0.25)
    source.close()

    assert main(
        ["cache", "export", "--cache-dir", str(tmp_path / "fs"), "--to", str(tmp_path / "db.sqlite")]
    ) == 0
    out = capsys.readouterr().out
    assert "copied 1 entry:" in out

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
