"""Hostile HTTP requests against ``CampaignService``: every request gets an answer.

Requests are written to a raw socket in one ``sendall`` and the answer is
parsed with :class:`http.client.HTTPResponse`, so a test controls every
byte: the method, the path (route words, junk segments, percent-escapes),
the query string (duplicates, non-integers, huge integers), the body
(random JSON, non-JSON bytes) and its ``Content-Length`` (missing, bad or
oversize).  Each answer must arrive within 5 s, be JSON (a ``HEAD``
answer has no body; a finished job's ``/csv`` is CSV) and carry a status
the API documents, and the service must stay healthy afterwards.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.service import CampaignService, JobManager
from repro.service.http import _MAX_BODY_BYTES
from repro.store import open_store

#: The only submission the property may start: the smallest smoke campaign.
_VALID = {"preset": "smoke", "num_runs": 1, "horizon_days": 0.05}

_STATUSES = {200, 202, 400, 404, 405, 409, 413}


def _request(service: CampaignService, raw: bytes, method: str) -> tuple[int, dict, bytes]:
    """Send ``raw`` in one write and read the whole answer (5 s timeout)."""
    with socket.create_connection((service.host, service.port), timeout=5.0) as sock:
        sock.sendall(raw)
        response = http.client.HTTPResponse(sock, method=method)
        try:
            response.begin()
            return response.status, dict(response.getheaders()), response.read()
        finally:
            response.close()


def _raw(method: str, target: str, body: bytes | None, length: str | None) -> bytes:
    head = [f"{method} {target} HTTP/1.1", "Host: test"]
    if length is not None:
        head.append(f"Content-Length: {length}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + (body or b"")


@pytest.fixture
def service(tmp_path):
    store = open_store("sqlite", tmp_path / "db.sqlite")
    svc = CampaignService(JobManager(store), port=0).start()
    yield svc
    svc.close()
    store.close()


def _wait_for_jobs(service: CampaignService, timeout_s: float = 60.0) -> None:
    deadline = time.monotonic() + timeout_s
    while any(job.snapshot()["state"] in ("queued", "running") for job in service.manager.jobs()):
        assert time.monotonic() < deadline, "jobs did not finish"
        time.sleep(0.02)


# ------------------------------------------------------------------ methods
@pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "HEAD", "OPTIONS", "BREW"])
def test_methods_other_than_get_and_post_are_a_405(service, method):
    status, headers, body = _request(service, _raw(method, "/v1/jobs", None, None), method)
    assert status == 405 and headers["Allow"] == "GET, POST"
    if method == "HEAD":
        assert body == b""
    else:
        assert headers["Content-Type"] == "application/json"
        assert f"method {method!r} not allowed" in json.loads(body)["error"]


def test_a_body_shorter_than_its_content_length_is_a_408(service, monkeypatch):
    """The handler stops waiting for the missing bytes and says so, instead
    of holding its thread until the client hangs up."""
    monkeypatch.setattr("repro.service.http._BODY_TIMEOUT_S", 0.2)
    start = time.monotonic()
    status, _, body = _request(service, _raw("POST", "/v1/jobs", b"{}", "100"), "POST")
    assert status == 408 and "100 bytes" in json.loads(body)["error"]
    assert time.monotonic() - start < 3.0
    assert service.manager.jobs() == []


def test_a_silent_client_does_not_hold_a_handler_thread(service, monkeypatch):
    """A client that connects and never sends its request line is dropped
    once the request timeout runs out, and its handler thread ends."""
    monkeypatch.setattr("repro.service.http._BODY_TIMEOUT_S", 0.2)
    baseline = threading.active_count()
    deadline = time.monotonic() + 3.0
    silent = [socket.create_connection((service.host, service.port)) for _ in range(3)]
    try:
        for sock in silent:
            sock.settimeout(max(0.01, deadline - time.monotonic()))
            assert sock.recv(1) == b""  # the server closed the connection
    finally:
        for sock in silent:
            sock.close()
    while threading.active_count() > baseline:
        assert time.monotonic() < deadline, (threading.active_count(), baseline)
        time.sleep(0.02)
    status, _, _ = _request(service, _raw("GET", "/healthz", None, None), "GET")
    assert status == 200


# ------------------------------------------------------------------ property
_METHODS = st.sampled_from(["GET", "POST", "PUT", "DELETE", "PATCH", "HEAD", "OPTIONS"])
_ROUTES = st.sampled_from(
    ["/", "/healthz", "/metrics", "/v1/presets", "/v1/jobs", "/v1/jobs/job-0001",
     "/v1/jobs/job-0001/result", "/v1/jobs/job-0001/csv", "/v1/jobs/job-0001/cells",
     "/v1/jobs/job-0001/trace", "/v1/jobs/job-0002/cells", "/v1/jobs/job-0002/trace"]
)
_SEGMENTS = st.one_of(
    st.sampled_from(["v1", "jobs", "job-0001", "result", "csv", "cells", "trace", ""]),
    st.text(alphabet="abcXYZ019-._~!$&'()*+,;=:@", min_size=1, max_size=12),
    st.lists(
        st.sampled_from(["%00", "%2F", "%20", "%C3%A9", "%FF", "%zz", "%", "%E2%80", "%3F"]),
        min_size=1,
        max_size=3,
    ).map("".join),
)
#: Routes, routes with junk segments appended, and junk alone.
_PATHS = st.one_of(
    _ROUTES,
    st.tuples(_ROUTES, st.lists(_SEGMENTS, min_size=1, max_size=3)).map(
        lambda pair: pair[0].rstrip("/") + "".join("/" + segment for segment in pair[1])
    ),
    st.lists(_SEGMENTS, max_size=5).map(lambda parts: "/" + "/".join(parts)),
)
_QUERY_VALUES = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(
        ["", "abc", "1.5", "-0", "1e3", "9" * 40, "-" + "9" * 40, "least-waste",
         "io%3D1%2Cmtbf%3Dshort", "io%3D4%2Cmtbf%3Dlong", "%FF"]
    ),
)
_QUERIES = st.lists(
    st.tuples(st.sampled_from(["scenario", "strategy", "seed", "rep", "x"]), _QUERY_VALUES),
    max_size=4,
).map(lambda pairs: "&".join(f"{key}={value}" for key, value in pairs))
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
_BODIES = st.one_of(
    st.none(),
    _JSON.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=64),
    st.just(json.dumps(_VALID).encode()),
    # One key of the valid submission made invalid.
    st.sampled_from(
        [("num_runs", value) for value in (0, -1, 1.5, "1", True, 10**20)]
        + [("horizon_days", value) for value in (0, -1, "x", True, 10**400)]
        + [("preset", value) for value in ("", "smok", 7, ["smoke"], "x" * 300)]
    ).map(lambda item: json.dumps({**_VALID, item[0]: item[1]}).encode()),
)
#: None: the body's own length (no header without a body); else bad or oversize.
_LENGTHS = st.one_of(
    st.none(),
    st.sampled_from(["abc", "", "-1", "1e3", str(_MAX_BODY_BYTES + 1), "9" * 30]),
)
#: (method, path, query, body, Content-Length): submissions, reads of the
#: routes, and anything at all, so every route is reached with jobs in it.
_REQUESTS = st.one_of(
    st.tuples(st.just("POST"), st.just("/v1/jobs"), st.just(""), _BODIES, _LENGTHS),
    st.tuples(st.just("GET"), _ROUTES, _QUERIES, st.none(), st.none()),
    st.tuples(_METHODS, _PATHS, _QUERIES, _BODIES, _LENGTHS),
)


def test_every_request_gets_a_documented_answer_in_time(service):
    """Over any mix of methods, paths, queries and bodies: an answer within
    5 s, JSON except HEAD and a finished job's CSV, a documented status, and
    a service that is still healthy afterwards."""

    @settings(
        max_examples=200,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(request=_REQUESTS)
    def check(request):
        method, path, query, body, length = request
        if length is None and body is not None:
            length = str(len(body))
        target = path + ("?" + query if query else "")
        status, headers, answer = _request(service, _raw(method, target, body, length), method)
        assert status in _STATUSES, (method, target, status, answer[:200])
        if method == "HEAD":
            assert answer == b""
        elif headers["Content-Type"].startswith("text/csv"):
            assert status == 200 and path.endswith("/csv")
        else:
            assert headers["Content-Type"] == "application/json"
            json.loads(answer)

    start = time.monotonic()
    check()
    assert time.monotonic() - start < 15.0
    status, _, answer = _request(service, _raw("GET", "/healthz", None, None), "GET")
    assert (status, json.loads(answer)) == (200, {"ok": True})
    _wait_for_jobs(service)
