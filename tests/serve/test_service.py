"""End-to-end service tests against a real ``repro serve`` subprocess.

One server (1 worker, private disk cache, short job timeout) backs the
whole module; the drain test runs last and shuts it down.  Covers the
acceptance path: concurrent identical submissions execute once (dedup)
and both clients get identical results; a worker killed mid-job is
retried transparently; a hung job is timed out and failed; drain
finishes in-flight work, writes the service manifest, and exits; and
service-path statistics are bit-identical to a direct runner call.
"""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve.client import ServeClient, ServeError

#: Per-job timeout the module's server is started with: long enough for
#: any small-geometry simulation here, short enough to test enforcement.
JOB_TIMEOUT = 6.0

#: Small geometry so simulations take fractions of a second.
GEOMETRY = {"num_warps": 4, "num_lanes": 4}


class ServerUnderTest:
    def __init__(self, process, port, cache_dir, manifest_dir):
        self.process = process
        self.port = port
        self.cache_dir = cache_dir
        self.manifest_dir = manifest_dir

    def client(self, timeout=60.0):
        return ServeClient(port=self.port, timeout=timeout)

    def stats(self):
        with self.client() as client:
            return client.stats()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("simcache"))
    manifest_dir = str(tmp_path_factory.mktemp("serve-manifests"))
    env = dict(os.environ)
    env["REPRO_SIMCACHE_DIR"] = cache_dir
    env["REPRO_MANIFEST_DIR"] = manifest_dir
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in [os.path.join(os.getcwd(), "src"),
                     env.get("PYTHONPATH")] if p])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1", "--job-timeout", str(JOB_TIMEOUT),
         "--retries", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        text=True)
    line = process.stdout.readline()
    match = re.search(r"listening on [\w.]+:(\d+)", line)
    if not match:
        process.kill()
        raise RuntimeError("server did not announce a port: %r" % line)
    yield ServerUnderTest(process, int(match.group(1)), cache_dir,
                          manifest_dir)
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def test_ping_reports_protocol_version(server):
    from repro.serve.protocol import PROTOCOL_VERSION
    with server.client() as client:
        reply = client.ping()
    assert reply["pong"] is True
    assert reply["version"] == PROTOCOL_VERSION


def test_service_results_bit_identical_to_direct_run(server):
    with server.client() as client:
        payloads = client.run_grid(benchmarks=["VecAdd"],
                                   configs=["baseline"],
                                   overrides=GEOMETRY)
    assert len(payloads) == 1
    payload = next(iter(payloads.values()))
    assert payload["benchmark"] == "VecAdd"
    assert payload["config"] == "baseline"
    assert payload["stats"]["cycles"] > 0
    # The same cell run directly through the runner must be bit-identical
    # (same geometry, same private disk cache the worker wrote into).
    old = os.environ.get("REPRO_SIMCACHE_DIR")
    os.environ["REPRO_SIMCACHE_DIR"] = server.cache_dir
    try:
        from repro.eval.runner import run_benchmark
        direct = run_benchmark("VecAdd", "baseline", **GEOMETRY)
    finally:
        if old is None:
            os.environ.pop("REPRO_SIMCACHE_DIR", None)
        else:
            os.environ["REPRO_SIMCACHE_DIR"] = old
    assert payload["stats"] == direct.stats.as_dict()


def test_resubmission_is_served_from_memo(server):
    before = server.stats()["stats"]
    with server.client() as client:
        payloads = client.run_grid(benchmarks=["VecAdd"],
                                   configs=["baseline"],
                                   overrides=GEOMETRY)
    after = server.stats()["stats"]
    assert len(payloads) == 1
    assert after["executed"] == before["executed"]
    assert after["memo_hits"] + after["cache_hits"] > \
        before["memo_hits"] + before["cache_hits"]


def test_concurrent_identical_grids_execute_once(server):
    before = server.stats()["stats"]
    barrier = threading.Barrier(2)
    results = [None, None]
    errors = []

    def submit(slot):
        try:
            with server.client() as client:
                barrier.wait()
                results[slot] = client.run_grid(
                    benchmarks=["Reduce"], configs=["baseline"],
                    overrides=GEOMETRY)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=submit, args=(slot,))
               for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    after = server.stats()["stats"]
    # One simulation execution total; the duplicate attached to it.
    assert after["executed"] == before["executed"] + 1
    assert after["dedup_hits"] + after["memo_hits"] > \
        before["dedup_hits"] + before["memo_hits"]
    # Both clients got the same single job with identical payloads.
    assert results[0] is not None and results[1] is not None
    assert list(results[0]) == list(results[1])
    assert results[0] == results[1]


def test_worker_killed_mid_job_is_retried(server):
    before = server.stats()["stats"]
    events = []
    with server.client() as client:
        stream = client.submit_and_stream(kind="sleep", seconds=2.0,
                                          tag="kill-me")
        reply = next(stream)
        job_id = reply["jobs"][0]["id"]
        for message in stream:
            events.append(message)
            if message.get("event") == "started" and \
                    len([e for e in events
                         if e.get("event") == "started"]) == 1:
                # First execution attempt: shoot the worker.
                workers = server.stats()["workers"]
                victim = [w for w in workers if w["job"] == job_id]
                assert victim, "worker table does not show the job"
                os.kill(victim[0]["pid"], signal.SIGKILL)
    names = [message.get("event") for message in events]
    assert "retry" in names
    assert names.count("started") == 2
    assert names[-1] == "grid_done"
    done = [m for m in events if m.get("event") == "done"]
    assert done and done[0]["id"] == job_id
    after = server.stats()["stats"]
    assert after["retries"] == before["retries"] + 1
    with server.client() as client:
        job = client.result(job_id)["job"]
    assert job["state"] == "done"
    assert job["attempts"] == 1


def test_hung_job_times_out_and_fails_without_retry(server):
    before = server.stats()["stats"]
    with server.client(timeout=JOB_TIMEOUT + 30) as client:
        events = list(client.submit_and_stream(kind="sleep",
                                               seconds=600.0,
                                               tag="hang"))
    failed = [m for m in events if m.get("event") == "failed"]
    assert failed
    assert "timed out" in failed[0]["error"]
    names = [message.get("event") for message in events]
    assert "retry" not in names
    after = server.stats()["stats"]
    assert after["timeouts"] == before["timeouts"] + 1
    assert after["failed"] == before["failed"] + 1


def test_error_codes(server):
    with server.client() as client:
        with pytest.raises(ServeError) as excinfo:
            client.submit(benchmarks=["NotABench"])
        assert excinfo.value.code == "bad-request"
        with pytest.raises(ServeError) as excinfo:
            list(client.stream("g9999"))
        assert excinfo.value.code == "unknown-grid"
        with pytest.raises(ServeError) as excinfo:
            client.result("j999999")
        assert excinfo.value.code == "unknown-job"
        with pytest.raises(ServeError) as excinfo:
            client._request("frobnicate")
        assert excinfo.value.code == "bad-request"


def test_metrics_exposition_and_snapshot(server):
    with server.client() as client:
        reply = client.metrics()
    exposition = reply["exposition"]
    assert "# TYPE serve_executed_total counter" in exposition
    assert "# TYPE serve_job_latency_seconds histogram" in exposition
    assert 'serve_job_latency_seconds_bucket{le="+Inf"}' in exposition
    assert "serve_job_latency_seconds_count" in exposition
    assert "serve_workers 1" in exposition
    snapshot = reply["metrics"]
    assert snapshot["serve_job_latency_seconds"]["count"] >= 1
    assert snapshot["serve_executed_total"] >= 1
    assert "+Inf" in snapshot["serve_job_latency_seconds"]["buckets"]


def test_top_once_renders_live_dashboard(server):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in [os.path.join(os.getcwd(), "src"),
                     env.get("PYTHONPATH")] if p])
    top = subprocess.run(
        [sys.executable, "-m", "repro", "top", "--once",
         "--port", str(server.port)],
        capture_output=True, text=True, env=env, timeout=60)
    assert top.returncode == 0, top.stdout + top.stderr
    assert "repro top" in top.stdout
    assert "workers" in top.stdout
    assert "latency" in top.stdout
    # The frame reflects the live session, not a blank server.
    assert "executed 0" not in top.stdout


def test_result_lookup_by_content_key(server):
    with server.client() as client:
        jobs = client.jobs(payloads=True)["jobs"]
        done = [job for job in jobs if job["state"] == "done"]
        assert done
        by_key = client.result(done[0]["key"])["job"]
    assert by_key["id"] == done[0]["id"]


def test_drain_finishes_inflight_work_and_writes_manifest(server):
    # Submit a job, and while it is running ask a second connection to
    # drain: the result must still be delivered, then the server exits.
    stream_events = []
    drain_reply = {}

    def streamer():
        with server.client() as client:
            for message in client.submit_and_stream(kind="sleep",
                                                    seconds=2.0,
                                                    tag="drain-me"):
                stream_events.append(message)

    def drainer():
        with server.client() as client:
            drain_reply.update(client.drain())

    stream_thread = threading.Thread(target=streamer)
    stream_thread.start()
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if any(m.get("event") == "started" for m in stream_events):
            break
        time.sleep(0.05)
    drain_thread = threading.Thread(target=drainer)
    drain_thread.start()
    time.sleep(0.5)  # let the drain request land
    # While draining, new submissions are refused with a stable code.
    with server.client() as client:
        with pytest.raises(ServeError) as excinfo:
            client.submit(kind="sleep", seconds=0.1, tag="too-late")
        assert excinfo.value.code == "draining"
    drain_thread.join(timeout=30)
    stream_thread.join(timeout=30)
    # The in-flight job completed and streamed its result despite drain.
    names = [message.get("event") for message in stream_events]
    assert "done" in names
    assert names[-1] == "grid_done"
    assert drain_reply["drained"] is True
    assert drain_reply["stats"]["draining"] is True
    # Server process exits cleanly and the manifest records the session.
    assert server.process.wait(timeout=30) == 0
    manifest_path = drain_reply["manifest"]
    assert manifest_path and os.path.exists(manifest_path)
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    assert manifest["generator"] == "repro.serve"
    assert manifest["service"]["executed"] >= 3
    assert any(job["label"].startswith("sleep")
               for job in manifest["jobs"])
    # Drain exports the session's telemetry sidecars next to the
    # manifest: span NDJSON, a Perfetto service trace, and the metrics
    # time series.
    telemetry = manifest.get("telemetry") or {}
    for key in ("trace_ndjson", "perfetto_trace", "metrics_ndjson"):
        assert key in telemetry, telemetry
        assert os.path.exists(telemetry[key])
    from repro.obs.perfetto import validate_trace
    with open(telemetry["perfetto_trace"]) as handle:
        assert validate_trace(json.load(handle)) == []
    # One submitted job produced one *connected* trace spanning the
    # client submission, the scheduler's job/queue spans, and the
    # worker-process execution.
    from repro.obs.telemetry import load_ndjson_spans
    spans = load_ndjson_spans(telemetry["trace_ndjson"])
    by_trace = {}
    for span in spans:
        by_trace.setdefault(span["trace_id"], []).append(span)
    connected = []
    for trace_spans in by_trace.values():
        names = {span["name"] for span in trace_spans}
        processes = {span["process"] for span in trace_spans}
        ids = {span["span_id"] for span in trace_spans}
        linked = all(span["parent_id"] in ids
                     for span in trace_spans if span["parent_id"])
        if {"serve.submit", "serve.job",
                "worker.execute"} <= names and linked:
            connected.append((names, processes))
    assert connected, "no connected client->scheduler->worker trace"
    names, processes = connected[0]
    assert "client" in processes
    assert "scheduler" in processes
    assert any(process.startswith("worker-") for process in processes)
