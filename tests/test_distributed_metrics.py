"""The worker metrics endpoint (``coopckpt worker --metrics-port``).

Binds :class:`WorkerMetricsServer` to an OS-assigned port on loopback with a
stub metrics callable, and pins what a scraper sees: the JSON payload on
``/metrics`` and ``/``, the liveness answer on ``/healthz``, a 404 elsewhere,
a 200 with an ``error`` field when the callable raises, and a clean stop.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.distributed import SpoolWorker, WorkSpool
from repro.distributed.metrics import WorkerMetricsServer
from repro.exec import ResultCache


def _get(server: WorkerMetricsServer, path: str) -> tuple[int, dict]:
    url = f"http://{server.host}:{server.port}{path}"
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def test_metrics_and_root_serve_the_callable_as_json():
    with WorkerMetricsServer(lambda: {"tasks_done": 3, "worker_id": "w"}) as server:
        assert server.url == f"http://127.0.0.1:{server.port}/metrics"
        assert _get(server, "/metrics") == (200, {"tasks_done": 3, "worker_id": "w"})
        assert _get(server, "/") == (200, {"tasks_done": 3, "worker_id": "w"})
        assert _get(server, "/metrics?format=json") == (200, {"tasks_done": 3, "worker_id": "w"})


def test_healthz_answers_ok_without_calling_the_metrics():
    def metrics() -> dict:
        raise AssertionError("a liveness probe must not compute metrics")

    with WorkerMetricsServer(metrics) as server:
        assert _get(server, "/healthz") == (200, {"ok": True})


def test_unknown_path_is_a_404():
    with WorkerMetricsServer(dict) as server:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        excinfo.value.close()
        assert excinfo.value.code == 404


def test_a_failing_metrics_callable_still_answers_200_with_an_error():
    def metrics() -> dict:
        raise RuntimeError("counter store gone")

    with WorkerMetricsServer(metrics) as server:
        status, payload = _get(server, "/metrics")
    assert status == 200
    assert payload == {"error": "RuntimeError('counter store gone')"}


def test_close_stops_the_server_thread():
    server = WorkerMetricsServer(dict)
    assert server._thread.is_alive()
    server.close()
    assert not server._thread.is_alive()
    with pytest.raises(urllib.error.URLError):
        _get(server, "/healthz")


def test_idle_worker_metrics_keys(tmp_path):
    spool, cache = WorkSpool(tmp_path / "spool"), ResultCache(tmp_path / "cache")
    worker = SpoolWorker(spool, cache, worker_id="w1")
    metrics = worker.metrics()
    assert sorted(metrics) == [
        "batches_claimed", "cache_hit_rate", "cache_hits", "claims_per_s",
        "heartbeat_age_s", "in_flight_batch", "lease_reclaims", "polls",
        "seeds_simulated", "tasks_done", "tasks_failed", "tasks_per_s",
        "uptime_s", "worker_id",
    ]
    assert metrics["worker_id"] == "w1"
    assert metrics["tasks_done"] == metrics["batches_claimed"] == metrics["cache_hits"] == 0
    assert metrics["cache_hit_rate"] == 0.0
    assert metrics["in_flight_batch"] is None and metrics["heartbeat_age_s"] is None
    # The payload the endpoint serves is the worker's snapshot, JSON-ready.
    with WorkerMetricsServer(worker.metrics) as server:
        status, served = _get(server, "/metrics")
    assert status == 200 and served["worker_id"] == "w1" and sorted(served) == sorted(metrics)
