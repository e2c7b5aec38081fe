"""The worker metrics endpoint (``coopckpt worker --metrics-port``).

Serves :func:`~repro.service.http.metrics_route` on the shared
:class:`~repro.service.http.JsonServer`, bound to an OS-assigned port on
loopback with a stub metrics callable, and pins what a scraper sees: the
JSON payload on ``/metrics`` and ``/``, the liveness answer on
``/healthz``, a JSON 404 elsewhere, a 200 with an ``error`` field when the
callable raises, and a clean stop.  The last test runs the real CLI.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import urllib.error
import urllib.request
from collections.abc import Callable
from pathlib import Path

import pytest

from repro.distributed import SpoolWorker, WorkSpool
from repro.service.http import JsonServer, metrics_route
from repro.store import FilesystemStore

SRC = Path(__file__).resolve().parent.parent / "src"

#: The counters ``SpoolWorker.metrics()`` reports, which the endpoint serves.
WORKER_METRICS_KEYS = [
    "batches_claimed", "cache_hit_rate", "cache_hits", "claims_per_s",
    "heartbeat_age_s", "in_flight_batch", "lease_reclaims", "polls",
    "seeds_simulated", "tasks_done", "tasks_failed", "tasks_per_s",
    "uptime_s", "worker_id",
]


def _serve(metrics: Callable[[], dict]) -> JsonServer:
    return JsonServer(metrics_route(metrics)).start()


def _get(server: JsonServer, path: str, data: bytes | None = None) -> tuple[int, dict]:
    with urllib.request.urlopen(server.url + path, data=data, timeout=10) as response:
        return response.status, json.loads(response.read())


def test_metrics_and_root_serve_the_callable_as_json():
    snapshot = {"tasks_done": 3, "worker_id": "w"}
    with _serve(lambda: snapshot) as server:
        assert server.url == f"http://127.0.0.1:{server.port}"
        for path in ("/metrics", "/", "/metrics?format=json", "/metrics/"):
            assert _get(server, path) == (200, snapshot), path
        # A POST reaches the same route and gets the same answer.
        assert _get(server, "/metrics", data=b"{}") == (200, snapshot)


def test_healthz_answers_ok_without_calling_the_metrics():
    def metrics() -> dict:
        raise AssertionError("a liveness probe must not compute metrics")

    with _serve(metrics) as server:
        assert _get(server, "/healthz") == (200, {"ok": True})


def test_unknown_path_is_a_404():
    with _serve(dict) as server:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server, "/nope")
        with excinfo.value as error:
            assert error.code == 404
            assert "unknown path '/nope'" in json.loads(error.read())["error"]


def test_a_failing_metrics_callable_still_answers_200_with_an_error():
    def metrics() -> dict:
        raise RuntimeError("counter store gone")

    with _serve(metrics) as server:
        status, payload = _get(server, "/metrics")
    assert status == 200
    assert payload == {"error": "RuntimeError('counter store gone')"}


def test_close_stops_the_server_thread():
    server = _serve(dict)
    assert server._thread is not None and server._thread.is_alive()
    server.close()
    assert not server._thread.is_alive()
    with pytest.raises(urllib.error.URLError):
        _get(server, "/healthz")


def test_idle_worker_metrics_keys(tmp_path):
    spool, cache = WorkSpool(tmp_path / "spool"), FilesystemStore(tmp_path / "cache")
    worker = SpoolWorker(spool, cache, worker_id="w1")
    metrics = worker.metrics()
    assert sorted(metrics) == WORKER_METRICS_KEYS
    assert metrics["worker_id"] == "w1"
    assert metrics["tasks_done"] == metrics["batches_claimed"] == metrics["cache_hits"] == 0
    assert metrics["cache_hit_rate"] == 0.0
    assert metrics["in_flight_batch"] is None and metrics["heartbeat_age_s"] is None
    # The payload the endpoint serves is the worker's snapshot, JSON-ready.
    with _serve(worker.metrics) as server:
        status, served = _get(server, "/metrics")
    assert status == 200 and served["worker_id"] == "w1" and sorted(served) == sorted(metrics)


def test_worker_cli_announces_and_serves_its_endpoint(tmp_path):
    """The contract perfbench's ``spool-fleet`` and CI's ``saturation-smoke``
    rely on: ``--metrics-port 0 --log-json`` announces the endpoint in the
    ``start`` event, and that URL serves the worker's counters."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    worker = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "worker", "--spool", str(tmp_path / "spool"),
         "--cache-dir", str(tmp_path / "cache"), "--metrics-port", "0", "--log-json",
         "--idle-timeout", "60", "--quiet"],
        stdout=subprocess.PIPE, text=True, env=env,
        # A shell background job ignores SIGINT, and the worker would inherit
        # that; restore the default so the Ctrl-C below reaches it.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    watchdog = threading.Timer(60.0, worker.kill)  # never hang the suite
    watchdog.start()
    try:
        start = next(
            event for event in map(json.loads, worker.stdout) if event["event"] == "start"
        )
        url = start["metrics"]
        port = int(url.rsplit(":", 1)[1].removesuffix("/metrics"))
        assert url == f"http://127.0.0.1:{port}/metrics"
        with urllib.request.urlopen(url, timeout=10) as response:
            assert response.status == 200
            assert sorted(json.loads(response.read())) == WORKER_METRICS_KEYS
        healthz = url.removesuffix("/metrics") + "/healthz"
        with urllib.request.urlopen(healthz, timeout=10) as response:
            assert (response.status, json.loads(response.read())) == (200, {"ok": True})
        worker.send_signal(signal.SIGINT)
        assert worker.wait(timeout=30) == 130  # the CLI's Ctrl-C exit
    finally:
        watchdog.cancel()
        worker.kill()
        worker.wait()
        worker.stdout.close()
