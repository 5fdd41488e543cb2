#!/usr/bin/env python
"""CI smoke test for the simulation service.

Starts ``repro serve``, submits a small benchmark grid and asserts the
streamed lifecycle reaches completion; then restarts the server on the
same disk cache, resubmits the identical grid and asserts every cell is
served as a cache hit without touching a worker, and that resubmitting
it many times more is answered from the job table while the server's
tables stay within their caps; both server sessions are drained cleanly
(the drain must write a service manifest).

Exits non-zero on the first violated expectation.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py [--keep TMPDIR]
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.scheduler import (  # noqa: E402
    MAX_FINISHED_GRIDS,
    MAX_TERMINAL_JOBS,
)

GRID = dict(benchmarks=["VecAdd", "Reduce"], configs=["baseline"],
            overrides={"num_warps": 4, "num_lanes": 4})
#: Resubmissions of the grid in the cached session: more than the
#: finished-grid cap, so the grid table has to evict to stay within it.
RESUBMITS = MAX_FINISHED_GRIDS + 44


def start_server(workdir):
    env = dict(os.environ)
    env["REPRO_SIMCACHE_DIR"] = os.path.join(workdir, "simcache")
    env["REPRO_MANIFEST_DIR"] = os.path.join(workdir, "manifests")
    env["PYTHONPATH"] = os.pathsep.join(
        [path for path in (sys.path[0], env.get("PYTHONPATH")) if path])
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
        text=True)
    line = process.stdout.readline()
    match = re.search(r"listening on [\w.]+:(\d+)", line)
    if not match:
        process.kill()
        raise SystemExit("serve did not announce a port: %r" % line)
    return process, int(match.group(1))


def run_session(workdir, expect_cached):
    process, port = start_server(workdir)
    phase = "cached" if expect_cached else "fresh"
    try:
        with ServeClient(port=port, timeout=300.0) as client:
            events = []
            for message in client.submit_and_stream(stream=True, **GRID):
                if "event" in message:
                    events.append(message)
                    print("[%s] %s %s" % (phase, message["event"],
                                          message.get("label", "")))
        names = [message["event"] for message in events]
        terminal = [message for message in events
                    if message["event"] in ("done", "cached")]
        assert names[-1] == "grid_done", "stream must end with grid_done"
        assert len(terminal) == 2, "both grid cells must complete"
        assert all("payload" in message for message in terminal)
        assert all(message["payload"]["stats"]["cycles"] > 0
                   for message in terminal)
        if expect_cached:
            assert names.count("cached") == 2, \
                "restart must serve the grid from the disk cache, " \
                "got events %r" % names
            check_resubmissions(port)
        else:
            assert names.count("done") == 2, \
                "fresh submission must simulate, got events %r" % names
        with ServeClient(port=port, timeout=60.0) as client:
            exposition = client.metrics()["exposition"]
            for metric in ("serve_submissions_total", "serve_executed_total",
                           "serve_job_latency_seconds_bucket",
                           "serve_workers"):
                assert metric in exposition, \
                    "metrics exposition is missing %s" % metric
            print("[%s] metrics exposition: %d lines"
                  % (phase, len(exposition.splitlines())))
            reply = client.drain()
        assert reply["drained"] is True
        assert reply["manifest"] and os.path.exists(reply["manifest"]), \
            "drain must write the service manifest"
        stats = reply["stats"]
        if expect_cached:
            assert stats["executed"] == 0 and stats["cache_hits"] == 2, \
                "cached session ran %d job(s)" % stats["executed"]
        else:
            assert stats["executed"] == 2
        check_telemetry(reply["manifest"], phase,
                        expect_worker=not expect_cached)
        code = process.wait(timeout=30)
        assert code == 0, "server exited with %d" % code
        print("[%s] drained cleanly: executed=%d cache_hits=%d"
              % (phase, stats["executed"], stats["cache_hits"]))
    finally:
        if process.poll() is None:
            process.kill()


def check_resubmissions(port):
    """Repeats of a completed grid are memo hits that the server does
    not accumulate: nothing executes and the tables stay capped."""
    cells = len(GRID["benchmarks"]) * len(GRID["configs"])
    with ServeClient(port=port, timeout=60.0) as client:
        before = client.stats()["stats"]
        for _ in range(RESUBMITS):
            reply = client.submit(**GRID)
            assert [job["state"] for job in reply["jobs"]] == \
                ["cached"] * cells, "resubmission was not a memo hit"
        after = client.stats()["stats"]
    memo_hits = after["memo_hits"] - before["memo_hits"]
    assert memo_hits == RESUBMITS * cells, \
        "%d resubmission(s) gave %d memo hit(s)" % (RESUBMITS, memo_hits)
    assert after["executed"] == before["executed"], \
        "a resubmission executed"
    assert after["grids_retained"] <= MAX_FINISHED_GRIDS, \
        "%d grids retained" % after["grids_retained"]
    assert after["jobs_retained"] <= MAX_TERMINAL_JOBS, \
        "%d jobs retained" % after["jobs_retained"]
    print("[cached] %d resubmissions: %d memo hits, %d grid(s) and %d "
          "job(s) retained" % (RESUBMITS, memo_hits,
                               after["grids_retained"],
                               after["jobs_retained"]))


def check_telemetry(manifest_path, phase, expect_worker):
    """The drain manifest must point at telemetry sidecars, and the
    fresh session's trace must connect client -> scheduler -> worker
    under one trace id."""
    with open(manifest_path) as stream:
        manifest = json.load(stream)
    telemetry = manifest.get("telemetry") or {}
    for key in ("metrics_ndjson", "trace_ndjson", "perfetto_trace"):
        assert telemetry.get(key) and os.path.exists(telemetry[key]), \
            "manifest telemetry is missing %s" % key
    with open(telemetry["trace_ndjson"]) as stream:
        spans = [json.loads(line) for line in stream if line.strip()]
    traces = {}
    for span in spans:
        traces.setdefault(span["trace_id"], []).append(span)
    if expect_worker:
        connected = [
            trace for trace in traces.values()
            if {"serve.submit", "serve.job", "worker.execute"}
            <= {span["name"] for span in trace}
            and all(span.get("parent_id") is None
                    or span["parent_id"] in {s["span_id"] for s in trace}
                    for span in trace)
        ]
        assert connected, \
            "no connected client->scheduler->worker trace among %d " \
            "trace(s)" % len(traces)
        processes = {span["process"] for span in connected[0]}
        assert "client" in processes and "scheduler" in processes, \
            "connected trace is missing a process tier: %r" % processes
    print("[%s] telemetry sidecars ok: %d span(s), %d trace(s)"
          % (phase, len(spans), len(traces)))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keep", metavar="TMPDIR", default=None,
                        help="use (and keep) this work directory")
    args = parser.parse_args()
    workdir = args.keep or tempfile.mkdtemp(prefix="repro-serve-smoke-")
    os.makedirs(workdir, exist_ok=True)
    try:
        run_session(workdir, expect_cached=False)
        run_session(workdir, expect_cached=True)
        print("serve smoke: OK")
        return 0
    finally:
        if not args.keep:
            shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
