"""Worker health/metrics HTTP endpoint (``coopckpt worker --metrics-port``).

A tiny stdlib-only HTTP server on a background thread, exposing a running
:class:`~repro.distributed.worker.SpoolWorker`:

* ``GET /metrics`` — the worker's :meth:`~SpoolWorker.metrics` snapshot as
  JSON (claims/s, cache-hit rate, lease reclaims, heartbeat age, in-flight
  batch);
* ``GET /healthz`` — ``{"ok": true}`` with status 200 while the worker
  thread is alive (a liveness probe for supervisors).

The server never touches the spool or cache itself — it only reads the
worker's in-memory counters, so scraping it is free no matter how loaded
the shared filesystem is.  Bind to port 0 to let the OS pick (the chosen
port is in :attr:`WorkerMetricsServer.port`), which is what tests do.
"""

from __future__ import annotations

import json
import threading
from collections.abc import Callable
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ConfigurationError

__all__ = ["WorkerMetricsServer"]


class WorkerMetricsServer:
    """Serve one worker's metrics on ``http://<host>:<port>``."""

    def __init__(
        self,
        metrics: Callable[[], dict],
        *,
        port: int = 0,
        host: str = "127.0.0.1",
    ) -> None:
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                if self.path.split("?", 1)[0] in ("/metrics", "/", "/healthz"):
                    if self.path.startswith("/healthz"):
                        payload = {"ok": True}
                    else:
                        try:
                            payload = server._metrics()
                        except Exception as exc:  # never take the scrape down
                            payload = {"error": repr(exc)}
                    body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_error(404, "unknown path (try /metrics or /healthz)")

            def log_message(self, format: str, *args: object) -> None:
                pass  # scrapes must not spam the worker's stdout

        self._metrics = metrics
        try:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        except (OSError, OverflowError) as exc:  # busy port, or out of range
            raise ConfigurationError(
                f"cannot serve metrics on {host}:{port}: {exc}"
            ) from exc
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"metrics-:{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "WorkerMetricsServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
