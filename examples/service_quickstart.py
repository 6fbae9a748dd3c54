"""Labeling-as-a-service quickstart: drive a live HTTP server end to end.

Starts ``python -m repro serve`` as a subprocess on an ephemeral port, then
exercises every endpoint with nothing but the standard library:

1. ``POST /jobs`` with a JSON :class:`~repro.api.engine.JobSpec` wire
   document (dataset recipe + config + population factory — provenance,
   not payloads, crosses the wire);
2. ``GET /jobs/{id}/events`` — the SSE progress stream, one frame per
   :class:`~repro.api.events.ProgressEvent`;
3. ``GET /jobs/{id}/labels`` — paginated labels, served immutable (ETag +
   ``Cache-Control``) once the job is terminal;
4. ``GET /jobs/{id}`` and ``GET /jobs`` — status, result summary, and
   execution stats;
5. ``DELETE /jobs/{id}`` — unregister and tear down the job's streams.

Then it reruns the same document in this process and checks that the run's
fingerprint digest equals the one the final SSE frame and ``GET /jobs/{id}``
reported: a job is a pure function of its document, wherever it runs.

Run with::

    python examples/service_quickstart.py
"""

from __future__ import annotations

import http.client
import json
import signal
import subprocess
import sys

from repro import Engine, JobSpec

NUM_RECORDS = 40

JOB_DOCUMENT = {
    "dataset": {
        "generator": "labeling_workload",
        "params": {"num_records": 2 * NUM_RECORDS, "seed": 7},
    },
    "config": {
        "pool_size": 8,
        "straggler_mitigation": True,
        "maintenance_threshold": None,
        "learning_strategy": "none",
        "seed": 7,
    },
    "population": {"factory": "mixed_speed", "seed": 7},
    "num_records": NUM_RECORDS,
    "name": "quickstart",
}


def start_server() -> tuple[subprocess.Popen, str, int]:
    """Launch ``repro serve`` on an ephemeral port and parse its banner."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    banner = process.stdout.readline().strip()
    # "repro service listening on http://127.0.0.1:PORT"
    url = banner.rsplit(" ", 1)[-1]
    host, port = url.removeprefix("http://").split(":")
    print(f"server up at {url}")
    return process, host, int(port)


def request(host: str, port: int, method: str, path: str, body=None):
    connection = http.client.HTTPConnection(host, port, timeout=120)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None, dict(
            response.getheaders()
        )
    finally:
        connection.close()


def stream_events(host: str, port: int, job_id: str) -> list[dict]:
    """Consume the SSE stream until the server closes the connection."""
    connection = http.client.HTTPConnection(host, port, timeout=300)
    try:
        connection.request("GET", f"/jobs/{job_id}/events")
        response = connection.getresponse()
        assert response.getheader("Content-Type").startswith("text/event-stream")
        body = response.read().decode("utf-8")
    finally:
        connection.close()
    frames = []
    for chunk in body.split("\n\n"):
        data = [
            line[len("data: ") :]
            for line in chunk.splitlines()
            if line.startswith("data: ")
        ]
        if data:
            frames.append(json.loads("\n".join(data)))
    return frames


def main() -> int:
    process, host, port = start_server()
    try:
        status, health, _ = request(host, port, "GET", "/healthz")
        print(f"healthz: {health['status']} (repro {health['version']})")

        status, job, _ = request(host, port, "POST", "/jobs", body=JOB_DOCUMENT)
        assert status == 201, status
        job_id = job["id"]
        print(f"submitted {job_id} ({job['name']!r})")

        frames = stream_events(host, port, job_id)
        for frame in frames:
            if frame["kind"] == "batch_completed":
                print(
                    f"  batch {frame['batch_index']:>2}: "
                    f"+{len(frame['new_labels'])} labels "
                    f"(total {frame['records_labeled']}) "
                    f"sim t={frame['wall_clock']:.1f}s"
                )
        assert frames[-1]["kind"] == "run_finished"
        print(f"stream closed after {len(frames)} events")
        streamed_fingerprint = frames[-1]["result"]["fingerprint"]

        labels = []
        offset = 0
        while True:
            _, page, headers = request(
                host, port, "GET", f"/jobs/{job_id}/labels?offset={offset}&limit=16"
            )
            if not page["labels"]:
                break
            labels.extend(page["labels"])
            offset += len(page["labels"])
        assert len(labels) == NUM_RECORDS, (len(labels), NUM_RECORDS)
        print(
            f"fetched {len(labels)}/{page['total']} labels in pages of 16 "
            f"({headers['Cache-Control']})"
        )

        _, detail, _ = request(host, port, "GET", f"/jobs/{job_id}")
        summary = detail["result"]
        print(
            f"job {detail['status']}: {summary['records_labeled']} records, "
            f"{summary['num_batches']} batches, "
            f"${summary['total_cost']:.2f}, "
            f"sim {summary['total_wall_clock']:.0f}s"
        )
        print(f"fingerprint {summary['fingerprint']}")
        rerun = Engine().run(JobSpec.from_dict(JOB_DOCUMENT)).fingerprint().digest
        assert summary["fingerprint"] == streamed_fingerprint == rerun, (
            summary["fingerprint"],
            streamed_fingerprint,
            rerun,
        )
        print("the final SSE frame, GET /jobs/{id} and an in-process rerun agree")

        _, listing, _ = request(host, port, "GET", "/jobs")
        print(f"registry holds {len(listing['jobs'])} job(s)")

        status, _, _ = request(host, port, "DELETE", f"/jobs/{job_id}")
        assert status == 200
        status, _, _ = request(host, port, "GET", f"/jobs/{job_id}")
        assert status == 404
        print("deleted; subsequent GET is 404")
        return 0
    finally:
        process.send_signal(signal.SIGINT)
        process.wait(timeout=30)
        print("server stopped")


if __name__ == "__main__":
    raise SystemExit(main())
