"""A closed-loop HTTP client that counts failures instead of raising.

Each request has a timeout.  A response with an unexpected status, a
connection error or a timeout is recorded as failed and the client carries
on; a failed request's latency is recorded as the timeout, so it counts as
missing every latency percentile.  One client holds at most one connection
at a time: the server closes the connection after an event stream, and the
next request opens a fresh one.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from typing import Any, Hashable, Mapping, Optional

from .host import clock

#: What a failed request can raise: socket errors and timeouts are OSErrors,
#: malformed responses are HTTPExceptions, a bad body is a ValueError.
_FAILURES = (OSError, http.client.HTTPException, ValueError)


@dataclass(frozen=True)
class Request:
    """One non-streaming request as the client saw it.

    ``tag`` is the caller's name for what the request addressed (a job id,
    a page), used to pair the request with the server-side handler call.
    """

    route: str
    tag: Hashable
    ms: float
    ok: bool


@dataclass(frozen=True)
class Reply:
    """A successful response: status, ``ETag`` header and parsed JSON body."""

    status: int
    etag: Optional[str]
    document: Any


@dataclass
class Stream:
    """One event stream: its frames and when the first and last arrived."""

    frames: list[dict[str, Any]] = field(default_factory=list)
    first_frame_at: Optional[float] = None
    last_frame_at: Optional[float] = None


class ClosedLoopClient:
    """Sends one request at a time to ``host:port``; see the module doc."""

    def __init__(self, host: str, port: int, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        self.requests: list[Request] = []
        self.attempted = 0
        self.failed = 0

    def close(self) -> None:
        self._conn.close()

    def drain(self) -> tuple[list[Request], int, int]:
        """Requests, attempts and failures since the last drain; the
        client then counts afresh."""
        drained = (self.requests, self.attempted, self.failed)
        self.requests, self.attempted, self.failed = [], 0, 0
        return drained

    def request(
        self,
        route: str,
        method: str,
        path: str,
        *,
        tag: Hashable = None,
        body: Optional[Mapping[str, Any]] = None,
        headers: Optional[Mapping[str, str]] = None,
        expect: tuple[int, ...] = (200,),
    ) -> Optional[Reply]:
        """Send one request and read its whole body.

        Returns the reply when the status is in ``expect`` and a JSON body
        (if any) parses; otherwise records a failure and returns ``None``.
        """
        payload = None if body is None else json.dumps(body).encode("utf-8")
        all_headers = dict(headers or {})
        if payload is not None:
            all_headers["Content-Type"] = "application/json"
        self.attempted += 1
        started = clock()
        reply = None
        try:
            self._conn.request(method, path, body=payload, headers=all_headers)
            response = self._conn.getresponse()
            raw = response.read()
            ms = 1000.0 * (clock() - started)
            if response.status in expect:
                document = json.loads(raw) if raw else None
                reply = Reply(response.status, response.getheader("ETag"), document)
        except _FAILURES:
            self._conn.close()
        if reply is None:
            self.failed += 1
            ms = 1000.0 * self.timeout_s
        self.requests.append(Request(route, tag, ms, reply is not None))
        return reply

    def stream(self, path: str) -> Optional[Stream]:
        """Read a whole server-sent event stream; ``None`` on failure.

        Streams are not in :attr:`requests`: their duration is the run
        time of the job, not a request latency.
        """
        self.attempted += 1
        stream = Stream()
        response: Optional[http.client.HTTPResponse] = None
        try:
            self._conn.request("GET", path)
            response = self._conn.getresponse()
            if response.status != 200:
                response.read()
                self.failed += 1
                return None
            data: list[str] = []
            while True:
                line = response.readline()
                if not line:
                    break
                text = line.decode("utf-8").rstrip("\n")
                if text.startswith("data: "):
                    data.append(text[len("data: "):])
                elif not text and data:
                    now = clock()
                    if stream.first_frame_at is None:
                        stream.first_frame_at = now
                    stream.last_frame_at = now
                    stream.frames.append(json.loads("\n".join(data)))
                    data = []
        except _FAILURES:
            self._conn.close()
            self.failed += 1
            return None
        finally:
            if response is not None:
                response.close()
        return stream
