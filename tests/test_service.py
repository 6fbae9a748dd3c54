"""Tests for repro.service: HTTP routes, pagination, caching, SSE, shutdown.

Each test drives a real ``ThreadingHTTPServer`` on an ephemeral port through
``http.client`` — the same transport real clients use — so routing, headers,
and SSE framing are exercised end to end, not mocked.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api.engine import Engine, JobStatus
from repro.api.wire import event_to_dict, spec_from_dict
from repro.crowd.platform import SimulatedCrowdPlatform
from repro.service import JobNotFound, LabelingService, start_server


def job_payload(seed: int = 0, num_records: int = 10, **extra) -> dict:
    """A small, fully deterministic wire document."""
    payload = {
        "dataset": {
            "generator": "labeling_workload",
            "params": {"num_records": 2 * num_records, "seed": seed},
        },
        "config": {
            "pool_size": 4,
            "learning_strategy": "none",
            "maintenance_threshold": None,
            "seed": seed,
        },
        "population": {"factory": "mixed_speed", "seed": seed},
        "num_records": num_records,
        "name": f"test-{seed}",
    }
    payload.update(extra)
    return payload


def request(host, port, method, path, body=None, headers=None):
    """One HTTP request; returns (status, parsed JSON or None, headers)."""
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        request_headers = dict(headers or {})
        if payload is not None:
            request_headers["Content-Type"] = "application/json"
        conn.request(method, path, body=payload, headers=request_headers)
        response = conn.getresponse()
        raw = response.read()
        document = json.loads(raw) if raw else None
        return response.status, document, dict(response.getheaders())
    finally:
        conn.close()


def open_sse(host, port, path, timeout=120):
    """Send an SSE GET and return once its response headers have arrived.

    Returns (connection, response); the caller closes the connection.  Once
    this returns with a 200 the server is inside the stream, so a request
    sent afterwards cannot overtake the stream's opening.
    """
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    conn.request("GET", path)
    return conn, conn.getresponse()


def parse_sse(raw):
    """The data dicts of every frame in an SSE body."""
    frames = []
    for chunk in raw.split("\n\n"):
        if not chunk.strip():
            continue
        data_lines = [
            line[len("data: ") :]
            for line in chunk.splitlines()
            if line.startswith("data: ")
        ]
        frames.append(json.loads("\n".join(data_lines)))
    return frames


def read_sse_frame(response):
    """Block for the next whole SSE frame of an open response."""
    lines = []
    while True:
        line = response.readline().decode("utf-8")
        assert line, "stream ended before a whole frame arrived"
        if line == "\n":
            return parse_sse("".join(lines))[0]
        lines.append(line)


def read_sse(host, port, path, timeout=120):
    """Consume a whole SSE response; returns (status, list of data dicts)."""
    conn, response = open_sse(host, port, path, timeout=timeout)
    try:
        return response.status, parse_sse(response.read().decode("utf-8"))
    finally:
        conn.close()


@pytest.fixture()
def held_platform(monkeypatch):
    """``held_platform(hold)`` makes the simulated platform's ``hold``
    method block on an Event, pinning every job in RUNNING until released;
    it returns the ``(started, release)`` Events.

    The default holds pool initialisation, before the run emits anything;
    ``hold="start_assignment"`` holds the first dispatch, after the run has
    emitted ``run_started``.  Teardown releases every hold.
    """
    releases = []

    def hold(method: str = "initialize_pool"):
        started = threading.Event()
        release = threading.Event()
        original = getattr(SimulatedCrowdPlatform, method)

        def held(platform, *args, **kwargs):
            started.set()
            assert release.wait(timeout=60), "held platform never released"
            return original(platform, *args, **kwargs)

        monkeypatch.setattr(SimulatedCrowdPlatform, method, held)
        releases.append(release)
        return started, release

    yield hold
    for release in releases:
        release.set()


@pytest.fixture()
def live():
    """A live service on an ephemeral port; yields (host, port, service)."""
    service = LabelingService(max_workers=4)
    server = start_server(service, port=0)
    host, port = server.server_address[:2]
    yield host, port, service
    server.shutdown()
    server.server_close()
    service.close(wait=False)


class TestServiceApp:
    def test_unknown_ids_raise_job_not_found(self):
        with LabelingService(max_workers=1) as service:
            for operation in (
                lambda: service.get_job("job-404"),
                lambda: service.labels_page("job-404"),
                lambda: service.events("job-404"),
                lambda: service.delete("job-404"),
            ):
                with pytest.raises(JobNotFound, match="job-404"):
                    operation()

    def test_negative_pagination_rejected_before_lookup(self):
        with LabelingService(max_workers=1) as service:
            with pytest.raises(ValueError, match="offset"):
                service.labels_page("whatever", offset=-1)
            with pytest.raises(ValueError, match="limit"):
                service.labels_page("whatever", limit=-5)

    def test_submit_after_close_rejected(self):
        service = LabelingService(max_workers=1)
        service.close()
        with pytest.raises(RuntimeError, match="shutting down"):
            service.submit(job_payload())


class TestHTTPEndpoints:
    def test_submit_poll_labels_flow(self, live):
        host, port, service = live
        status, submitted, _ = request(host, port, "POST", "/jobs", body=job_payload(seed=5))
        assert status == 201
        job_id = submitted["id"]
        assert submitted["status"] in ("pending", "running", "succeeded")

        # Block server-side for completion, then poll the public surface.
        service.engine.get_job(job_id).result(timeout=120)
        status, detail, _ = request(host, port, "GET", f"/jobs/{job_id}")
        assert status == 200
        assert detail["status"] == "succeeded"
        assert detail["terminal"] is True
        assert detail["result"]["records_labeled"] == 10
        assert detail["stats"]["labels"] == 10
        assert detail["spec"]["population"] == {"factory": "mixed_speed", "seed": 5}

        status, listing, _ = request(host, port, "GET", "/jobs")
        assert status == 200
        assert [job["id"] for job in listing["jobs"]] == [job_id]

        status, page, _ = request(
            host, port, "GET", f"/jobs/{job_id}/labels?offset=0&limit=4"
        )
        assert status == 200
        assert page["total"] == 10
        assert len(page["labels"]) == 4
        # Pages tile the label set without overlap, ordered by record id.
        _, rest, _ = request(host, port, "GET", f"/jobs/{job_id}/labels?offset=4")
        record_ids = [r for r, _ in page["labels"]] + [r for r, _ in rest["labels"]]
        assert record_ids == sorted(record_ids)
        assert len(record_ids) == 10

    def test_pagination_edge_cases(self, live):
        host, port, service = live
        _, submitted, _ = request(host, port, "POST", "/jobs", body=job_payload(seed=6))
        job_id = submitted["id"]
        service.engine.get_job(job_id).result(timeout=120)

        _, past_end, _ = request(
            host, port, "GET", f"/jobs/{job_id}/labels?offset=999&limit=5"
        )
        assert past_end["labels"] == [] and past_end["total"] == 10

        _, zero_limit, _ = request(
            host, port, "GET", f"/jobs/{job_id}/labels?offset=0&limit=0"
        )
        assert zero_limit["labels"] == [] and zero_limit["total"] == 10

        status, error, _ = request(
            host, port, "GET", f"/jobs/{job_id}/labels?offset=-1"
        )
        assert status == 400 and "offset" in error["error"]

        status, error, _ = request(
            host, port, "GET", f"/jobs/{job_id}/labels?limit=banana"
        )
        assert status == 400 and "limit" in error["error"]

    def test_terminal_labels_are_cacheable_with_etag(self, live):
        host, port, service = live
        _, submitted, _ = request(host, port, "POST", "/jobs", body=job_payload(seed=7))
        job_id = submitted["id"]
        service.engine.get_job(job_id).result(timeout=120)

        status, _, headers = request(host, port, "GET", f"/jobs/{job_id}/labels")
        assert status == 200
        assert headers["Cache-Control"] == "public, max-age=86400, immutable"
        etag = headers["ETag"]
        assert etag.startswith('"') and etag.endswith('"')

        status, body, headers = request(
            host, port, "GET", f"/jobs/{job_id}/labels",
            headers={"If-None-Match": etag},
        )
        assert status == 304 and body is None
        assert headers["ETag"] == etag

    def test_running_labels_are_no_store(self, live, held_platform):
        host, port, service = live
        started, release = held_platform()
        _, submitted, _ = request(host, port, "POST", "/jobs", body=job_payload(seed=8))
        job_id = submitted["id"]
        assert started.wait(timeout=60)
        status, page, headers = request(host, port, "GET", f"/jobs/{job_id}/labels")
        assert status == 200
        assert page["terminal"] is False
        assert headers["Cache-Control"] == "no-store"
        assert "ETag" not in headers
        release.set()
        service.engine.get_job(job_id).result(timeout=120)

    def test_error_mapping(self, live):
        host, port, _ = live
        assert request(host, port, "GET", "/jobs/job-404")[0] == 404
        assert request(host, port, "DELETE", "/jobs/job-404")[0] == 404
        assert request(host, port, "GET", "/nowhere")[0] == 404
        # Malformed documents are 400s, with the offending key named.
        status, error, _ = request(
            host, port, "POST", "/jobs", body={"dataset": {"generator": "nope"}}
        )
        assert status == 400 and "nope" in error["error"]
        status, error, _ = request(
            host, port, "POST", "/jobs", body=job_payload(surprise=1)
        )
        assert status == 400 and "surprise" in error["error"]

    def test_unfinishable_config_is_refused(self, live):
        """More votes than pool workers could never finish: a 400 naming
        the field, and no job is created."""
        host, port, _ = live
        before = request(host, port, "GET", "/jobs")[1]
        doomed = job_payload()
        doomed["config"]["votes_required"] = 5
        status, error, _ = request(host, port, "POST", "/jobs", body=doomed)
        assert status == 400 and "votes_required" in error["error"]
        assert request(host, port, "GET", "/jobs")[1] == before

    def test_abandonment_without_reserve_is_refused(self, live):
        """Abandoned seats with no reserve to refill them could strand a
        batch: a 400 naming the reserve, and no job is created."""
        host, port, _ = live
        before = request(host, port, "GET", "/jobs")[1]
        doomed = job_payload()
        doomed["config"]["abandonment_rate"] = 0.1
        doomed["config"]["maintenance_reserve_size"] = 0
        status, error, _ = request(host, port, "POST", "/jobs", body=doomed)
        assert status == 400 and "maintenance_reserve_size" in error["error"]
        assert request(host, port, "GET", "/jobs")[1] == before

    @pytest.mark.parametrize(
        "extra,named",
        [
            ({"backend": "simulated"}, "backend"),
            ({"seed": 0}, "seed"),
            ({"accuracy_target": 0.9}, "accuracy_target"),
            ({"max_batches": 10}, "max_batches"),
            ({"backend_options": {"bogus": 1}}, "backend_options"),
            ({"wire_version": 4}, "wire_version"),
            ({"wire_version": 6}, "wire_version"),
        ],
        ids=[
            "backend",
            "platform-seed",
            "accuracy-target",
            "max-batches",
            "backend-options",
            "version-4",
            "version-6",
        ],
    )
    def test_retired_keys_and_versions_are_refused(self, live, extra, named):
        """A key an earlier wire version carried (version 6's ``backend``,
        ``seed``, ``accuracy_target`` and ``max_batches``, version 4's
        ``backend_options``) or an earlier version is a 400 naming the
        offender, not a 201 for a job that ignores it."""
        host, port, _ = live
        before = request(host, port, "GET", "/jobs")[1]
        # Not ``job_payload(**extra)``: its own ``seed`` argument would take
        # the spec-level ``seed`` key.
        document = {**job_payload(), **extra}
        status, error, _ = request(host, port, "POST", "/jobs", body=document)
        assert status == 400 and named in error["error"]
        assert request(host, port, "GET", "/jobs")[1] == before

    @pytest.mark.parametrize(
        "path,value",
        [
            (("config", "pool_size"), 1_000_000_000),
            (("num_records",), 10**12),
            (("num_records",), 10**15),
            (("dataset", "params", "num_records"), 10**10),
            (("config", "votes_required"), float("nan")),
            (("config", "maintenance_reserve_size"), float("inf")),
            (("config", "pool_size"), float("nan")),
            (("config", "pool_size"), float("inf")),
            (("config", "records_per_task"), float("nan")),
            (("config", "records_per_task"), float("inf")),
            (("config", "seed"), float("nan")),
            (("config", "seed"), float("-inf")),
            (("config", "seed"), -1),
            (("config", "pool_batch_ratio"), float("nan")),
            (("config", "votes_required"), 2.5),
            (("config", "pool_size"), True),
            (("num_records",), float("nan")),
            (("num_records",), 20.5),
            (("num_records",), float("inf")),
            (("dataset", "params", "num_classes"), float("inf")),
            (("wire_version",), 2),
        ],
        ids=lambda part: ".".join(part) if isinstance(part, tuple) else repr(part),
    )
    def test_malformed_numbers_are_refused(self, live, path, value):
        """JSON ``NaN``/``Infinity``, floats in integer fields, booleans in
        numeric ones and sizes above their ceiling are 400s naming the
        field, never a queued job that hangs or fails, and never a 500."""
        host, port, _ = live
        before = request(host, port, "GET", "/jobs")[1]
        document = job_payload()
        *parents, key = path
        target = document
        for parent in parents:
            target = target[parent]
        target[key] = value
        status, error, _ = request(host, port, "POST", "/jobs", body=document)
        assert status == 400 and key in error["error"]
        assert request(host, port, "GET", "/jobs")[1] == before

    def test_huge_class_sep_is_refused(self, live):
        """A finite but out-of-range ``class_sep`` is a 400 naming the
        field, not a job that runs to a degenerate accuracy."""
        host, port, _ = live
        before = request(host, port, "GET", "/jobs")[1]
        document = job_payload()
        document["dataset"] = {
            "generator": "classification",
            "params": {"n_samples": 200, "n_features": 6, "class_sep": 1e300},
        }
        status, error, _ = request(host, port, "POST", "/jobs", body=document)
        assert status == 400 and "class_sep" in error["error"]
        assert request(host, port, "GET", "/jobs")[1] == before

    def test_delete_unregisters(self, live):
        host, port, _ = live
        _, submitted, _ = request(host, port, "POST", "/jobs", body=job_payload(seed=9))
        job_id = submitted["id"]
        status, body, _ = request(host, port, "DELETE", f"/jobs/{job_id}")
        assert status == 200 and body == {"deleted": True, "id": job_id}
        assert request(host, port, "GET", f"/jobs/{job_id}")[0] == 404

    def test_healthz(self, live):
        host, port, _ = live
        import repro

        status, body, _ = request(host, port, "GET", "/healthz")
        assert status == 200
        assert body == {"status": "ok", "version": repro.__version__}


class TestTransport:
    """Keep-alive responses reach the client without a delayed-ACK stall.

    A response is written as headers then body.  With Nagle's algorithm on,
    the body waits for the client to ACK the headers, and a delayed ACK
    holds every keep-alive response ~40 ms.
    """

    def test_accepted_connections_set_tcp_nodelay(self):
        service = LabelingService(max_workers=1)
        server = start_server(service, port=0)
        nodelay = []

        class ProbingHandler(server.RequestHandlerClass):
            def handle(self):
                nodelay.append(
                    self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                )
                super().handle()

        server.RequestHandlerClass = ProbingHandler
        try:
            host, port = server.server_address[:2]
            assert request(host, port, "GET", "/healthz")[0] == 200
        finally:
            server.shutdown()
            server.server_close()
            service.close(wait=False)
        assert nodelay and all(nodelay), nodelay

    def test_keep_alive_requests_are_not_held_by_delayed_ack(self, live):
        host, port, _ = live
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            conn.request("GET", "/healthz")  # open the connection
            conn.getresponse().read()
            elapsed_ms = []
            for _ in range(30):
                started = time.perf_counter()
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200 and response.read()
                elapsed_ms.append(1000.0 * (time.perf_counter() - started))
        finally:
            conn.close()
        # Half the ~40 ms that a delayed ACK adds to each response.
        assert statistics.median(elapsed_ms) < 20.0, elapsed_ms


class TestSSE:
    def test_sse_stream_matches_engine_stream_event_for_event(self, live):
        """The acceptance criterion: for a fixed seed, the frames served
        over HTTP equal ``Engine.stream`` on the same wire document."""
        host, port, service = live
        payload = job_payload(seed=12, num_records=12)
        _, submitted, _ = request(host, port, "POST", "/jobs", body=payload)
        status, streamed = read_sse(host, port, f"/jobs/{submitted['id']}/events")
        assert status == 200

        expected = [
            event_to_dict(event)
            for event in Engine().stream(spec_from_dict(payload))
        ]
        assert streamed == expected
        assert streamed[0]["kind"] == "run_started"
        assert streamed[-1]["kind"] == "run_finished"

    def test_agreement_maintained_job_matches_an_in_process_run(self, live):
        """A wire document can ask for quality maintenance: the final SSE
        frame carries the digest of an in-process ``Engine.run`` of the same
        document, a run that does evict on disagreement."""
        host, port, _ = live
        payload = job_payload(seed=2, num_records=30)
        payload["config"].update(
            pool_size=6,
            votes_required=3,
            maintenance_threshold=0.25,
            maintenance_objective="agreement",
        )
        status, submitted, _ = request(host, port, "POST", "/jobs", body=payload)
        assert status == 201
        status, frames = read_sse(host, port, f"/jobs/{submitted['id']}/events")
        assert status == 200

        expected = Engine().run(spec_from_dict(payload))
        assert expected.replacements
        assert frames[-1]["kind"] == "run_finished"
        assert frames[-1]["result"]["fingerprint"] == expected.fingerprint().digest

    def test_sse_replays_history_for_late_subscribers(self, live):
        host, port, service = live
        _, submitted, _ = request(host, port, "POST", "/jobs", body=job_payload(seed=13))
        job_id = submitted["id"]
        service.engine.get_job(job_id).result(timeout=120)
        # Job already finished: the stream still serves the full history.
        _, frames = read_sse(host, port, f"/jobs/{job_id}/events")
        assert frames[0]["kind"] == "run_started"
        assert frames[-1]["kind"] == "run_finished"

    def test_sse_unknown_job_is_404_not_a_stream(self, live):
        host, port, _ = live
        assert request(host, port, "GET", "/jobs/job-404/events")[0] == 404

    def test_close_terminates_inflight_sse_stream(self, held_platform):
        """Graceful shutdown: a client blocked on a live stream sees clean
        end-of-stream when the service closes, not a hang."""
        started, release = held_platform()
        service = LabelingService(max_workers=1)
        server = start_server(service, port=0)
        host, port = server.server_address[:2]
        try:
            _, submitted, _ = request(
                host, port, "POST", "/jobs", body=job_payload(seed=14)
            )
            assert started.wait(timeout=60)
            outcome: dict = {}

            def consume():
                outcome["frames"] = read_sse(
                    host, port, f"/jobs/{submitted['id']}/events"
                )[1]

            reader = threading.Thread(target=consume)
            reader.start()
            # The job is pinned RUNNING, so the stream cannot end on its
            # own; close() must wake and terminate it.
            service.close(wait=False)
            reader.join(timeout=30)
            assert not reader.is_alive(), "SSE stream survived close()"
        finally:
            release.set()
            server.shutdown()
            server.server_close()
            service.close(wait=False)

    def test_delete_terminates_that_jobs_stream(self, live, held_platform):
        host, port, service = live
        started, release = held_platform()
        _, submitted, _ = request(host, port, "POST", "/jobs", body=job_payload(seed=15))
        job_id = submitted["id"]
        assert started.wait(timeout=60)
        # Open the stream before the DELETE: sent first, the DELETE
        # could win and the reader would get a 404 instead of a stream.
        conn, response = open_sse(host, port, f"/jobs/{job_id}/events")
        try:
            assert response.status == 200
            outcome: dict = {}

            def consume():
                outcome["frames"] = parse_sse(response.read().decode("utf-8"))

            reader = threading.Thread(target=consume)
            reader.start()
            assert request(host, port, "DELETE", f"/jobs/{job_id}")[0] == 200
            reader.join(timeout=30)
            assert not reader.is_alive(), "SSE stream survived DELETE"
        finally:
            conn.close()
        # The job was held before it emitted anything.
        assert outcome["frames"] == []
        release.set()

    def test_events_reach_the_client_while_the_job_runs(self, live, held_platform):
        """Each event is delivered as it is produced: ``run_started`` is
        streamed while the job is held at its first dispatch, not buffered
        until the job ends."""
        host, port, service = live
        started, release = held_platform("start_assignment")
        payload = job_payload(seed=17)
        _, submitted, _ = request(host, port, "POST", "/jobs", body=payload)
        job_id = submitted["id"]
        assert started.wait(timeout=60)
        conn, response = open_sse(host, port, f"/jobs/{job_id}/events", timeout=30)
        try:
            assert response.status == 200
            first = read_sse_frame(response)
            assert first["kind"] == "run_started"
            assert service.engine.get_job(job_id).status is JobStatus.RUNNING
            release.set()
            rest = parse_sse(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert [first, *rest] == [
            event_to_dict(event) for event in Engine().stream(spec_from_dict(payload))
        ]

    def test_failed_job_ends_stream_with_failure_frame(self, live, monkeypatch):
        host, port, service = live

        def explode(platform, *args, **kwargs):
            raise RuntimeError("platform exploded")

        monkeypatch.setattr(SimulatedCrowdPlatform, "__init__", explode)
        _, submitted, _ = request(host, port, "POST", "/jobs", body=job_payload(seed=16))
        job_id = submitted["id"]
        job = service.engine.get_job(job_id)
        assert job.wait(timeout=60) is JobStatus.FAILED
        _, frames = read_sse(host, port, f"/jobs/{job_id}/events")
        assert frames[-1]["kind"] == "job_failed"
        assert "platform exploded" in frames[-1]["error"]
        status, detail, _ = request(host, port, "GET", f"/jobs/{job_id}")
        assert detail["status"] == "failed"
        assert "platform exploded" in detail["error"]


class TestCoalescedAndPooledStreams:
    """SSE framing is independent of where events were produced — on a pool
    thread or in a worker process that sends them over a pipe."""

    @contextmanager
    def _live_service(self, **engine_kwargs):
        service = LabelingService(max_workers=2, **engine_kwargs)
        server = start_server(service, port=0)
        try:
            host, port = server.server_address[:2]
            yield host, port, service
        finally:
            server.shutdown()
            server.server_close()
            service.close(wait=False)

    def _sse_frames(self, payload, **engine_kwargs):
        with self._live_service(**engine_kwargs) as (host, port, _):
            _, submitted, _ = request(host, port, "POST", "/jobs", body=payload)
            status, frames = read_sse(host, port, f"/jobs/{submitted['id']}/events")
            assert status == 200
            return frames

    def test_sse_identical_for_process_executor(self):
        payload = job_payload(seed=22, num_records=12)
        threaded = self._sse_frames(payload, executor="thread")
        pooled = self._sse_frames(payload, executor="process")
        assert pooled == threaded
        assert threaded[0]["kind"] == "run_started"
        assert threaded[-1]["kind"] == "run_finished"

    def test_shutdown_wakes_stream_blocked_mid_batch(self, held_platform):
        """close() must end an SSE consumer parked between deliveries: a
        held job emits nothing, the reader blocks after the history replay,
        and closing the job's streams unblocks it."""
        started, release = held_platform()
        service = LabelingService(max_workers=1)
        server = start_server(service, port=0)
        host, port = server.server_address[:2]
        frames = []
        payload = job_payload(seed=23, num_records=10)
        _, submitted, _ = request(host, port, "POST", "/jobs", body=payload)
        reader = threading.Thread(
            target=lambda: frames.append(
                read_sse(host, port, f"/jobs/{submitted['id']}/events")
            )
        )
        reader.start()
        assert started.wait(timeout=60), "job never reached the platform"
        # The reader is now blocked in stream(): no events, job running.
        service.close(wait=False)
        reader.join(timeout=60)
        alive = reader.is_alive()
        release.set()
        server.shutdown()
        server.server_close()
        assert not alive, "shutdown left the SSE reader blocked"
