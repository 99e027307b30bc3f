"""Transport faults over live sockets, against every mount of the HTTP core.

Each case writes raw bytes on a fresh connection and reads until the
server closes it (or stays silent), then parses every response it got.
The same cases run against the query plane, the fleet router and the
live observability plane, because all three share one connection loop
(:mod:`repro.obs.httpcore`).  No case reaches a shard, so the router's
shard URLs point at a closed port.
"""

import json
import socket

import pytest

from repro.obs.httpcore import MAX_HEADER_LINES, parse_url
from repro.obs.live import LiveServer
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve import FleetRouter, QueryServer

from .conftest import SHARDS, run_on

SMUGGLED = b"GET /smuggled HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture(scope="module", params=["serve", "router", "live"])
def url(request, engine, fleet, loop):
    if request.param == "live":
        plane = LiveServer(Tracer(process="wire"), MetricsRegistry()).start()
        yield plane.url
        plane.stop()
        return
    if request.param == "serve":
        live = LiveServer(Tracer(process="wire"), MetricsRegistry())
        server = QueryServer(engine, live=live)
    else:
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead = f"http://127.0.0.1:{probe.getsockname()[1]}"
        server = FleetRouter.open(fleet.directory, [dead] * SHARDS)
    run_on(loop, server.start())
    yield server.url
    run_on(loop, server.stop())


def exchange(url, payload, half_close=False):
    """Write ``payload`` on a new connection; ``(responses, closed)``.

    ``responses`` lists ``(status, headers, body)`` in arrival order;
    ``closed`` is whether the server closed the connection within 2 s.
    """
    with socket.create_connection(parse_url(url), timeout=2) as sock:
        try:
            sock.sendall(payload)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass  # refused before the whole payload was read
        data, closed = b"", False
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                closed = True
                break
            except socket.timeout:
                break
            if not chunk:
                closed = True
                break
            data += chunk
    responses = []
    while data:
        head, _, data = data.partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0))
        body, data = data[:length], data[length:]
        responses.append((int(status_line.split()[1]), headers, body))
    return responses, closed


def _assert_refused(url, payload, status):
    """One JSON error answer with ``Connection: close``, then a close."""
    responses, closed = exchange(url, payload)
    assert [response[0] for response in responses] == [status]
    _, headers, body = responses[0]
    assert headers["content-type"] == "application/json"
    assert headers["connection"] == "close"
    assert "error" in json.loads(body)
    assert closed


class TestRequestBodies:
    def test_body_is_not_read_as_the_next_request(self, url):
        payload = (
            b"POST /census HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\n\r\n" % len(SMUGGLED) + SMUGGLED
        )
        _assert_refused(url, payload, 405)

    def test_chunked_get_is_answered_then_closed(self, url):
        payload = (
            b"GET /metrics HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"%x\r\n" % len(SMUGGLED) + SMUGGLED + b"\r\n0\r\n\r\n"
        )
        responses, closed = exchange(url, payload)
        assert [response[0] for response in responses] == [200]
        assert responses[0][1]["connection"] == "close"
        assert closed


class TestMalformedHeads:
    def test_short_request_line_is_json_400(self, url):
        _assert_refused(url, b"GARBAGE\r\n", 400)

    def test_overlong_header_line_is_json_431(self, url):
        payload = (
            b"GET /metrics HTTP/1.1\r\nX-Big: " + b"a" * 100_000
            + b"\r\n\r\n"
        )
        _assert_refused(url, payload, 431)

    def test_header_lines_past_the_limit_are_json_431(self, url):
        pad = b"".join(
            b"X-Pad-%d: y\r\n" % index
            for index in range(MAX_HEADER_LINES + 1)
        )
        _assert_refused(
            url, b"GET /metrics HTTP/1.1\r\n" + pad + b"\r\n", 431
        )

    def test_header_lines_at_the_limit_are_served(self, url):
        pad = b"".join(
            b"X-Pad-%d: y\r\n" % index
            for index in range(MAX_HEADER_LINES - 1)
        )
        payload = (
            b"GET /metrics HTTP/1.1\r\n" + pad + b"Connection: close\r\n\r\n"
        )
        responses, closed = exchange(url, payload)
        assert [response[0] for response in responses] == [200]
        assert closed


class TestKeepAlive:
    def test_pipelined_requests_are_answered_in_order(self, url):
        payload = (
            b"GET /vars HTTP/1.1\r\nHost: x\r\n\r\n"
            b"GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n"
        )
        responses, closed = exchange(url, payload)
        assert [response[0] for response in responses] == [200, 200]
        (_, first, vars_body), (_, second, _) = responses
        assert first["content-type"] == "application/json"
        assert first["connection"] == "keep-alive"
        assert "counters" in json.loads(vars_body)
        assert second["content-type"].startswith("text/plain")
        assert second["connection"] == "close"
        assert closed

    def test_half_closed_client_still_gets_its_answer(self, url):
        responses, closed = exchange(
            url, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n", half_close=True
        )
        assert [response[0] for response in responses] == [200]
        assert responses[0][1]["content-type"].startswith("text/plain")
        assert closed


class TestLivePlaneLifecycle:
    def test_bind_failure_raises_and_leaves_the_plane_startable(self):
        plane = LiveServer(Tracer(process="wire"), MetricsRegistry())
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            plane.port = taken.getsockname()[1]
            with pytest.raises(OSError):
                plane.start()
        plane.port = 0
        plane.start()
        try:
            responses, _ = exchange(
                plane.url,
                b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            )
            assert [response[0] for response in responses] == [200]
        finally:
            plane.stop()
