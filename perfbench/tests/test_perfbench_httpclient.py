"""The closed-loop client counts failures and carries on.

A stub server answers ``/ok`` with JSON, everything else with 404, and
``/hang`` not at all until the test ends.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from perfbench.httpclient import ClosedLoopClient

TIMEOUT_S = 0.2


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    release: threading.Event

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        if self.path == "/hang":
            self.release.wait(10.0)
            return
        if self.path == "/ok":
            self._send(200, {"status": "ok"})
        elif self.path == "/stream":
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Connection", "close")
            self.end_headers()
            self.close_connection = True
            for index in range(3):
                self.wfile.write(f"id: {index}\ndata: {json.dumps({'n': index})}\n\n".encode())
        else:
            self._send(404, {"error": "no route"})

    def _send(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass


@pytest.fixture
def stub():
    release = threading.Event()
    handler = type("Stub", (_Stub,), {"release": release})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[:2]
    finally:
        release.set()
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        assert not thread.is_alive()


def test_404_is_counted_as_failed_and_timed_at_the_timeout(stub):
    client = ClosedLoopClient(*stub, timeout_s=TIMEOUT_S)
    try:
        assert client.request("missing", "GET", "/missing") is None
    finally:
        client.close()
    assert (client.attempted, client.failed) == (1, 1)
    [request] = client.requests
    assert not request.ok
    assert request.ms == 1000.0 * TIMEOUT_S


def test_a_hanging_request_times_out_and_the_client_carries_on(stub):
    client = ClosedLoopClient(*stub, timeout_s=TIMEOUT_S)
    try:
        assert client.request("hang", "GET", "/hang") is None
        reply = client.request("ok", "GET", "/ok", tag="after")
        assert client.request("missing", "GET", "/missing") is None
        again = client.request("ok", "GET", "/ok")
    finally:
        client.close()
    assert reply is not None and reply.status == 200 and reply.document == {"status": "ok"}
    assert again is not None
    assert (client.attempted, client.failed) == (4, 2)
    assert [request.ok for request in client.requests] == [False, True, False, True]
    assert client.requests[1].tag == "after"
    assert client.requests[1].ms < 1000.0 * TIMEOUT_S


def test_unexpected_success_status_is_a_failure(stub):
    client = ClosedLoopClient(*stub, timeout_s=TIMEOUT_S)
    try:
        assert client.request("ok", "GET", "/ok", expect=(304,)) is None
    finally:
        client.close()
    assert client.failed == 1


def test_streams_count_towards_attempted_and_failed(stub):
    client = ClosedLoopClient(*stub, timeout_s=TIMEOUT_S)
    try:
        stream = client.stream("/stream")
        assert client.stream("/missing") is None
        assert client.stream("/hang") is None
    finally:
        client.close()
    assert stream is not None
    assert [frame["n"] for frame in stream.frames] == [0, 1, 2]
    assert stream.first_frame_at is not None
    assert stream.last_frame_at >= stream.first_frame_at
    assert (client.attempted, client.failed) == (3, 2)
    assert client.requests == []
