"""The one HTTP server of the tree, and the campaign-results API on it.

:class:`JsonServer` is a stdlib :class:`http.server.ThreadingHTTPServer`
that sends every request to one route function and answers in JSON (or
CSV).  Two routes run on it: :func:`metrics_route`, the ``/healthz`` and
``/metrics`` probes of ``coopckpt worker --metrics-port``, and
:class:`CampaignService`, the ``coopckpt serve`` API in front of one shared
:class:`~repro.store.ResultStore` and a
:class:`~repro.service.jobs.JobManager`.  Endpoints of the service:

========================================  =====================================
``GET  /healthz``                         liveness probe, ``{"ok": true}``
``GET  /metrics``                         job counts, request counter, store stats
``GET  /v1/presets``                      submittable preset campaign names
``POST /v1/jobs``                         submit a campaign (preset / JSON / TOML)
``GET  /v1/jobs``                         every job's snapshot
``GET  /v1/jobs/<id>``                    one job's snapshot
``GET  /v1/jobs/<id>/result``             finished campaign summaries (409 until done)
``GET  /v1/jobs/<id>/csv``                the campaign CSV export (text/csv)
``GET  /v1/jobs/<id>/cells``              cell listing; ``?scenario=&strategy=&seed=``
``GET  /v1/jobs/<id>/trace``              waste decomposition; ``?scenario=&strategy=&rep=``
========================================  =====================================

The CSV endpoint calls the same :func:`~repro.scenarios.report.campaign_to_csv`
as ``coopckpt campaign --csv``, on the same :class:`CampaignResult` type —
so a served export is byte-identical to the offline one for the same
campaign and cache.  Errors are JSON: bad requests
(:class:`~repro.errors.ConfigurationError`) map to 400, unknown jobs/paths
to 404, methods other than GET and POST to 405 (``Allow: GET, POST``), a
body shorter than its ``Content-Length`` to 408 once it stops arriving,
results not ready to 409, everything unexpected to 500 — a broken request
must never take the server down.  A connection that stalls before its
request line and headers are in is closed without an answer.  This module
loads only the standard library and :mod:`repro.errors`, so a worker
serving its metrics never imports the job layer.
"""

from __future__ import annotations

import dataclasses
import json
import threading
from collections.abc import Callable
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from repro.errors import ConfigurationError, ReproError, short_repr

if TYPE_CHECKING:
    from repro.service.jobs import JobManager
    from repro.store.base import ResultStore

__all__ = ["CampaignService", "JsonServer", "metrics_route"]

_MAX_BODY_BYTES = 4 * 1024 * 1024  # campaign matrices are small; refuse blobs

#: Seconds any read of a request may stall.  A client that sends less than
#: its ``Content-Length`` gets a 408, and one that never completes its
#: request line and headers is dropped: neither may hold a thread.
_BODY_TIMEOUT_S = 10.0

#: A route answers ``(handler, method, path, query)`` with ``(status, payload)``:
#: a JSON-ready payload, or ``bytes`` sent as CSV.
Route = Callable[[BaseHTTPRequestHandler, str, str, dict[str, list[str]]], tuple[int, object]]


class _HTTPStatus(Exception):
    """A deliberate non-200 response (status + JSON error message)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _single_param(query: dict[str, list[str]], name: str) -> str | None:
    values = query.get(name)
    if not values:
        return None
    if len(values) > 1:
        raise _HTTPStatus(400, f"duplicate query parameter {name!r}")
    return values[0]


def _int_param(query: dict[str, list[str]], name: str) -> int | None:
    raw = _single_param(query, name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise _HTTPStatus(400, f"query parameter {name!r} must be an integer") from None


class JsonServer:
    """Serve one route function over HTTP on ``http://<host>:<port>``.

    Binds eagerly: a busy or out-of-range port fails construction with a
    :class:`ConfigurationError`, which the CLI maps to exit 2.  Request
    handling starts with :meth:`serve_forever` (blocking, for the CLI) or
    :meth:`start` (background daemon thread).  Bind to port 0 to let the OS
    pick — the chosen port is in :attr:`port`.  The route sees the path
    without its trailing slash and the parsed query string.
    """

    def __init__(self, route: Route, *, host: str = "127.0.0.1", port: int = 0) -> None:
        server = self

        class _Handler(BaseHTTPRequestHandler):
            def setup(self) -> None:
                # StreamRequestHandler.setup applies ``timeout`` to the
                # socket; it is read per connection so a changed value
                # takes effect without a new server.
                self.timeout = _BODY_TIMEOUT_S
                super().setup()

            def do_GET(self) -> None:  # noqa: N802 (stdlib API name)
                server._handle(self, "GET")

            def do_POST(self) -> None:  # noqa: N802 (stdlib API name)
                server._handle(self, "POST")

            def send_error(
                self, code: int, message: str | None = None, explain: str | None = None
            ) -> None:
                # The stdlib's own refusals (a malformed request line, too
                # many headers, a method with no do_ handler) answer in JSON
                # too, and a method other than GET or POST is a 405.
                self.close_connection = True
                if code == HTTPStatus.NOT_IMPLEMENTED:
                    message = f"method {short_repr(self.command)} not allowed; use GET or POST"
                    server._send_json(self, 405, {"error": message}, Allow="GET, POST")
                else:
                    server._send_json(self, code, {"error": message or HTTPStatus(code).phrase})

            def log_message(self, format: str, *args: object) -> None:
                pass  # request logs belong to the client, not the server tty

        self.route = route
        try:
            self._httpd = ThreadingHTTPServer((host, port), _Handler)
        except (OSError, OverflowError) as exc:  # busy port, or out of range
            raise ConfigurationError(f"cannot serve on {host}:{port}: {exc}") from exc
        self._httpd.daemon_threads = True
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread: threading.Thread | None = None
        self._serving = False

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def serve_forever(self) -> None:
        """Handle requests on the calling thread until :meth:`close`."""
        self._serving = True
        self._httpd.serve_forever()

    def start(self) -> JsonServer:
        """Handle requests on a background daemon thread."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=f"serve-:{self.port}", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        # shutdown() waits on serve_forever's exit handshake, so calling it
        # on a bound-but-never-served instance would block forever.
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> JsonServer:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _handle(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        try:
            split = urlsplit(handler.path)
            path = split.path.rstrip("/") or "/"
            status, payload = self.route(handler, method, path, parse_qs(split.query))
        except _HTTPStatus as exc:
            status, payload = exc.status, {"error": str(exc)}
        except ConfigurationError as exc:
            status, payload = 400, {"error": str(exc)}
        except ReproError as exc:
            status, payload = 500, {"error": str(exc)}
        except Exception as exc:  # one bad request must not kill the server
            status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(payload, bytes):  # pre-encoded non-JSON body (CSV)
            self._send(handler, status, payload, "text/csv; charset=utf-8")
        else:
            self._send_json(handler, status, payload)

    def _send_json(
        self, handler: BaseHTTPRequestHandler, status: int, payload: object, **headers: str
    ) -> None:
        body = json.dumps(payload, indent=2).encode("utf-8") + b"\n"
        self._send(handler, status, body, "application/json", **headers)

    def _send(
        self,
        handler: BaseHTTPRequestHandler,
        status: int,
        body: bytes,
        content_type: str,
        **headers: str,
    ) -> None:
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(body)))
            for name, value in headers.items():
                handler.send_header(name, value)
            handler.end_headers()
            if handler.command != "HEAD":
                handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to salvage


def metrics_route(metrics: Callable[[], dict]) -> Route:
    """The liveness and metrics probes of a process, as a route.

    ``/healthz`` answers ``{"ok": true}`` without calling ``metrics``;
    ``/metrics`` and ``/`` answer its snapshot, or ``{"error": ...}`` with a
    200 if it raises, so the endpoint stays scrapeable.  Any other path is a
    404.  The route does not look at the method: the server answers every
    method but GET and POST with a 405 before any route runs.
    """

    def route(
        handler: BaseHTTPRequestHandler, method: str, path: str, query: dict[str, list[str]]
    ) -> tuple[int, object]:
        if path == "/healthz":
            return 200, {"ok": True}
        if path in ("/metrics", "/"):
            try:
                return 200, metrics()
            except Exception as exc:  # never take the scrape down
                return 200, {"error": repr(exc)}
        raise _HTTPStatus(404, f"unknown path {short_repr(path)} (try /healthz, /metrics)")

    return route


class CampaignService(JsonServer):
    """Serve campaign submission, results and drill-downs over HTTP."""

    def __init__(
        self,
        manager: JobManager,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.requests = 0
        self._lock = threading.Lock()
        self._probes = metrics_route(self._metrics)
        super().__init__(self._route, host=host, port=port)

    @property
    def store(self) -> ResultStore:
        return self.manager.store

    def _route(
        self,
        handler: BaseHTTPRequestHandler,
        method: str,
        path: str,
        query: dict[str, list[str]],
    ) -> tuple[int, object]:
        from repro.service.jobs import campaign_from_request, result_payload

        with self._lock:
            self.requests += 1
        if path in ("/healthz", "/metrics"):
            return self._probes(handler, method, path, query)
        if path == "/v1/presets":
            from repro.scenarios.presets import CAMPAIGNS

            return 200, {"presets": sorted(CAMPAIGNS)}
        if path == "/v1/jobs":
            if method == "POST":
                body = self._read_json(handler)
                campaign = campaign_from_request(body)
                job = self.manager.submit(campaign)
                return 202, job.snapshot()
            return 200, {"jobs": [job.snapshot() for job in self.manager.jobs()]}
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                raise _HTTPStatus(405, f"{method} not allowed here")
            parts = path.split("/")[3:]  # ["<id>"] or ["<id>", "<aspect>"]
            if len(parts) > 2:
                raise _HTTPStatus(404, f"unknown path {short_repr(path)}")
            job = self.manager.get(parts[0])
            if job is None:
                raise _HTTPStatus(404, f"no job {short_repr(parts[0])}")
            aspect = parts[1] if len(parts) == 2 else None
            if aspect is None:
                return 200, job.snapshot()
            if aspect in ("result", "csv", "cells"):
                result = job.result
                if result is None:
                    raise _HTTPStatus(
                        409,
                        f"job {job.id} is {job.state}"
                        + (f": {job.error}" if job.error else "; poll until done"),
                    )
                if aspect == "result":
                    return 200, result_payload(result)
                if aspect == "csv":
                    from repro.scenarios.report import campaign_to_csv

                    return 200, campaign_to_csv(result).encode("utf-8")
                return 200, {
                    "cells": self.manager.cells(
                        job,
                        scenario=_single_param(query, "scenario"),
                        strategy=_single_param(query, "strategy"),
                        seed=_int_param(query, "seed"),
                    )
                }
            if aspect == "trace":
                scenario = _single_param(query, "scenario")
                strategy = _single_param(query, "strategy")
                if scenario is None or strategy is None:
                    raise _HTTPStatus(
                        400, "trace needs ?scenario=<name>&strategy=<name>[&rep=N]"
                    )
                rep = _int_param(query, "rep") or 0
                return 200, self.manager.drill(job, scenario, strategy, rep)
            raise _HTTPStatus(404, f"unknown path {short_repr(path)}")
        raise _HTTPStatus(
            404,
            f"unknown path {short_repr(path)} (try /healthz, /metrics, /v1/presets, /v1/jobs)",
        )

    # ------------------------------------------------------------ helpers
    def _metrics(self) -> dict:
        store = self.store
        try:
            stats = dataclasses.asdict(store.stats())
        except Exception as exc:  # metrics must stay scrapeable
            stats = {"error": repr(exc)}
        with self._lock:
            requests = self.requests
        return {
            "requests": requests,
            "jobs": self.manager.counts(),
            "store": {
                "kind": store.kind,
                "root": str(store.root),
                "hits": store.hits,
                "misses": store.misses,
                "writes": store.writes,
                "stats": stats,
            },
        }

    def _read_json(self, handler: BaseHTTPRequestHandler) -> object:
        try:
            length = int(handler.headers.get("Content-Length", "0"))
        except ValueError:
            raise _HTTPStatus(400, "bad Content-Length header") from None
        if length <= 0:
            raise _HTTPStatus(400, "request needs a JSON body (Content-Length)")
        if length > _MAX_BODY_BYTES:
            raise _HTTPStatus(413, f"body over {_MAX_BODY_BYTES} bytes")
        try:
            raw = handler.rfile.read(length)
        except TimeoutError:
            handler.close_connection = True
            raise _HTTPStatus(
                408, f"body stalled for {_BODY_TIMEOUT_S:g} s before its {length} bytes arrived"
            ) from None
        try:
            return json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            # UnicodeDecodeError, JSONDecodeError and an integer past Python's
            # digit limit are ValueErrors; RecursionError is nesting deeper
            # than the decoder recurses.
            raise _HTTPStatus(400, f"body is not valid JSON: {exc}") from None
