"""The HTTP layer: routing, JSON envelopes, SSE framing, and caching headers.

A deliberately thin adapter from :class:`LabelingService` methods to
stdlib ``http.server`` — every behaviour worth testing lives in ``app.py``.
Transport decisions made here:

* ``ThreadingHTTPServer`` with daemon threads: one thread per connection,
  which long-lived SSE responses require; daemonising keeps a hung client
  from pinning process exit.
* Nagle disabled (``TCP_NODELAY`` on every accepted connection).  A
  response goes out as two writes, headers then body; with Nagle on, the
  body waits for the client to ACK the headers, and a delayed ACK holds
  that for ~40 ms on every keep-alive response and every SSE frame.
* HTTP/1.1 with explicit ``Content-Length`` on JSON responses; SSE
  responses send ``Connection: close`` and mark the connection closed, so
  the unbounded body needs no chunked framing.
* Label pages of *terminal* jobs are immutable — they get a strong
  (sha256-of-body) ``ETag``, ``Cache-Control: public, max-age=86400,
  immutable``, and honour ``If-None-Match`` with 304.  Pages of running
  jobs are ``no-store``.
* Error mapping: :class:`JobNotFound` → 404, ``ValueError``/``TypeError``
  (malformed documents, bad query parameters) → 400, anything else → 500,
  all as ``{"error": ...}`` JSON envelopes.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Optional
from urllib.parse import parse_qs, urlsplit

from .. import __version__
from .app import JobNotFound, LabelingService

_JOB_ROUTE = re.compile(r"^/jobs/([^/]+)$")
_LABELS_ROUTE = re.compile(r"^/jobs/([^/]+)/labels$")
_EVENTS_ROUTE = re.compile(r"^/jobs/([^/]+)/events$")

#: Largest request body accepted by POST /jobs, in bytes.  Wire documents
#: are recipes (generator params, config knobs), not payloads; anything
#: bigger than this is a client error, not a bigger job.
MAX_BODY_BYTES = 1 << 20


def _json_bytes(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`LabelingService`."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: LabelingService) -> None:
        self.service = service
        super().__init__(address, _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: ServiceHTTPServer

    # -- routing ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        parts = urlsplit(self.path)
        path, query = parts.path, parse_qs(parts.query)
        try:
            service = self.server.service
            if path in ("/", "/healthz"):
                self._send_json(200, {"status": "ok", "version": __version__})
            elif path == "/jobs":
                self._send_json(200, service.list_jobs())
            elif (match := _LABELS_ROUTE.match(path)) is not None:
                self._send_labels(match.group(1), query)
            elif (match := _EVENTS_ROUTE.match(path)) is not None:
                self._send_events(match.group(1))
            elif (match := _JOB_ROUTE.match(path)) is not None:
                self._send_json(200, service.get_job(match.group(1)))
            else:
                self._send_json(404, {"error": f"no route for GET {path}"})
        except Exception as error:
            self._send_error_json(error)

    def do_POST(self) -> None:  # noqa: N802
        try:
            if urlsplit(self.path).path != "/jobs":
                self._send_json(404, {"error": f"no route for POST {self.path}"})
                return
            payload = self._read_json_body()
            self._send_json(201, self.server.service.submit(payload))
        except Exception as error:
            self._send_error_json(error)

    def do_DELETE(self) -> None:  # noqa: N802
        try:
            match = _JOB_ROUTE.match(urlsplit(self.path).path)
            if match is None:
                self._send_json(404, {"error": f"no route for DELETE {self.path}"})
                return
            self._send_json(200, self.server.service.delete(match.group(1)))
        except Exception as error:
            self._send_error_json(error)

    # -- endpoint bodies ----------------------------------------------------

    def _send_labels(self, job_id: str, query: dict[str, list[str]]) -> None:
        offset = self._query_int(query, "offset", 0)
        limit = self._query_int(query, "limit", None)
        page = self.server.service.labels_page(job_id, offset=offset, limit=limit)
        body = _json_bytes(page)
        if page["terminal"]:
            etag = '"' + hashlib.sha256(body).hexdigest()[:32] + '"'
            if self.headers.get("If-None-Match") == etag:
                self.send_response(304)
                self.send_header("ETag", etag)
                self.send_header(
                    "Cache-Control", "public, max-age=86400, immutable"
                )
                self.send_header("Content-Length", "0")
                self.end_headers()
                return
            extra = [
                ("ETag", etag),
                ("Cache-Control", "public, max-age=86400, immutable"),
            ]
        else:
            extra = [("Cache-Control", "no-store")]
        self._send_body(200, body, extra_headers=extra)

    def _send_events(self, job_id: str) -> None:
        # Resolve before committing to a 200: unknown ids 404 like any route.
        frames = self.server.service.events(job_id)
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-store")
        self.send_header("Connection", "close")
        self.end_headers()
        # Unbounded body: close the connection to delimit it (no chunking).
        self.close_connection = True
        try:
            for index, frame in enumerate(frames):
                data = json.dumps(frame, sort_keys=True)
                sse = f"id: {index}\nevent: {frame.get('kind', 'message')}\ndata: {data}\n\n"
                self.wfile.write(sse.encode("utf-8"))
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError):
            return  # client went away mid-stream

    # -- plumbing -----------------------------------------------------------

    def _read_json_body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            raise ValueError("request requires a JSON body (Content-Length)")
        if length > MAX_BODY_BYTES:
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise ValueError(f"request body is not valid JSON: {error}") from None

    @staticmethod
    def _query_int(
        query: dict[str, list[str]], key: str, default: Optional[int]
    ) -> Optional[int]:
        values = query.get(key)
        if not values:
            return default
        try:
            return int(values[-1])
        except ValueError:
            raise ValueError(f"query parameter {key!r} must be an integer") from None

    def _send_json(self, status: int, payload: Any) -> None:
        self._send_body(status, _json_bytes(payload))

    def _send_body(
        self,
        status: int,
        body: bytes,
        extra_headers: Optional[list[tuple[str, str]]] = None,
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in extra_headers or []:
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, error: Exception) -> None:
        if isinstance(error, JobNotFound):
            status = 404
        elif isinstance(error, (ValueError, TypeError)):
            status = 400
        else:
            status = 500
        try:
            self._send_json(status, {"error": str(error)})
        except (BrokenPipeError, ConnectionResetError):
            pass

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the caller's business, not stderr's


def start_server(
    service: LabelingService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Serve in a background daemon thread; returns the bound server.

    ``port=0`` binds an ephemeral port (read it back from ``server.url``).
    The caller owns shutdown: ``server.shutdown(); server.server_close()``
    plus ``service.close()``.
    """
    server = ServiceHTTPServer((host, port), service)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    max_workers: int = 8,
    executor: str = "thread",
) -> int:
    """Blocking entry point behind ``repro serve``.

    Prints the bound URL (port 0 picks an ephemeral one), serves until
    interrupted, then closes streams and the engine gracefully.
    ``executor`` picks the engine's execution mode for submitted jobs
    ("thread" or "process"); outcomes are identical, only parallelism
    differs.
    """
    service = LabelingService(max_workers=max_workers, executor=executor)
    server = ServiceHTTPServer((host, port), service)
    print(f"repro service listening on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close(wait=False)
        server.server_close()
    return 0
