"""Workload ``serve-mixed``: mixed traffic against ``python -m repro serve``.

The server runs as a subprocess with its default worker count, on an
empty per-session disk cache that set-up pre-seeds with a few cells
simulated in this process.  The client (this process) drives a closed
loop: it submits one cell, waits for its ``grid_done`` and submits the
next.  Every cell is at ``-O0``, like the rest of the benchmark.  A
session submits a fixed multiset of cells of four kinds, in an order the
seed draws:

- ``fresh``: a cell never seen before, so a worker simulates it: four
  of the cheapest benchmarks under the paper's configuration, each
  once;
- ``dedup``: once a fresh cell is admitted, a duplicate of it sent on a
  second connection while it simulates (single-flight dedup: the
  duplicate waits for the job in flight);
- ``disk``: the first submission of a pre-seeded cell (disk-cache hit);
- ``memo``: a repeat of a completed fresh or pre-seeded cell, served
  from the job table: ``MEMO_REPEATS`` are owed to each such cell once
  it completes; a memo slot that comes up before anything is owed swaps
  places with the next fresh or disk slot.

The mix is synthetic, chosen so that the service path, not simulation,
is what the session mostly does: all but about one in a hundred
submissions are hits, whose cost is the server compiling the job key
and answering from its job table or the disk cache.  The seed changes
only the order, so the cells served, and the simulated work, do not
depend on it.  Hits never overlap a simulation (the loop waits for each
fresh cell), so their latency is the service path alone rather than
its contention with a worker for the host's cores.

The serve layer is read from outside only: the public ``stats`` op and
the span sidecar the server writes when it drains.
"""

import json
import os
import random
import re
import shutil
import subprocess
import sys
import time

from common import (
    REFERENCE_SLICE_S,
    ROOT,
    BenchError,
    at_reference,
    calibration_slice,
    child_env,
    median,
    peak_rss_mb,
    sim_layer_metrics,
    speed_factors,
    stats_digest,
    tail,
    tree_cpu_seconds,
)

CONFIGS = ("baseline", "cheri", "cheri_opt", "boundscheck")
#: Cells simulated in this process during set-up, then served as
#: disk-cache hits.
PRESEEDED = [(name, config, 0) for name in ("VecAdd", "Reduce")
             for config in CONFIGS]
#: Benchmarks and configuration of the fresh cells: the cheapest to
#: simulate (about 0.1-0.3 s a cell), under the paper's configuration.
FRESH_BENCHMARKS = ("SPMV", "BlkStencil", "StrStencil", "VecGCD")
FRESH_CONFIGS = ("cheri_opt",)
#: Memo hits owed to every completed fresh or pre-seeded cell.
MEMO_REPEATS = 80
#: Seconds budgeted per session (the reference host, two cores, takes
#: 3-4 s with the server's start).  Sets how many identical sessions
#: fill ``--seconds``; the count depends only on ``--seconds``, so two
#: commits do equal work.
SESSION_SECONDS = 4.0
#: A submission still unanswered after this long counts as failed.
JOB_TIMEOUT = 120.0
START_TIMEOUT = 60.0
KINDS = ("fresh", "dedup", "disk", "memo")
#: The client runs a calibration slice before every this many
#: submissions and after the last (the server is idle meanwhile: the
#: loop is closed), and takes the slices' time out of the session's.
CALIBRATE_EVERY = 64


def fresh_cells():
    return [(name, config, 0)
            for name in FRESH_BENCHMARKS for config in FRESH_CONFIGS]


def sessions(seconds):
    return max(1, round(seconds / SESSION_SECONDS))


def make_traffic(seed):
    """One session's seeded traffic: (fresh cells in order, slot kinds).

    Each fresh slot also sends its ``dedup`` duplicate, so the session
    makes ``len(kinds) + len(fresh)`` submissions.
    """
    rng = random.Random(seed)
    fresh = fresh_cells()
    rng.shuffle(fresh)
    kinds = (["fresh"] * len(fresh) + ["disk"] * len(PRESEEDED)
             + ["memo"] * (MEMO_REPEATS * (len(fresh) + len(PRESEEDED))))
    rng.shuffle(kinds)
    return fresh, kinds


def _overrides(opt):
    return {"opt": 1} if opt else {}


def preseed(cells, env):
    """Simulate ``cells`` in this process into the session's disk cache.

    Returns their stats digests and the evaluation SMConfig (geometry
    and resolved backend).
    """
    os.environ["REPRO_SIMCACHE_DIR"] = env["REPRO_SIMCACHE_DIR"]
    os.environ["REPRO_MANIFEST_DIR"] = env["REPRO_MANIFEST_DIR"]
    from repro.eval import runner
    digests = {}
    for name, config, opt in cells:
        result = runner.run_benchmark(name, config, 1, **_overrides(opt))
        digests[(name, config, opt)] = stats_digest(
            json.loads(json.dumps(result.stats.as_dict())))
    return digests, runner.config_for("baseline")[1]


# -- server lifecycle --------------------------------------------------------

class Server:
    """One ``python -m repro serve`` subprocess on a free port."""

    def __init__(self, env, log_path):
        self.log_path = log_path
        self._log = open(log_path, "w")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            env=env, cwd=ROOT, stdout=self._log, stderr=subprocess.STDOUT)
        self.port = self._wait_for_port()

    def _wait_for_port(self):
        deadline = time.monotonic() + START_TIMEOUT
        while time.monotonic() < deadline:
            with open(self.log_path) as stream:
                match = re.search(r"listening on [\w.]+:(\d+)", stream.read())
            if match:
                return int(match.group(1))
            if self.process.poll() is not None:
                break
            time.sleep(0.02)
        self.kill()
        raise BenchError("repro serve did not start: %s" % self._log_tail())

    def _log_tail(self):
        with open(self.log_path) as stream:
            return stream.read()[-400:]

    def client(self, timeout=JOB_TIMEOUT):
        from repro.serve.client import ServeClient
        return ServeClient(port=self.port, timeout=timeout).connect()

    def warm(self):
        """Round-trip one no-op job so the worker pool is up."""
        with self.client() as client:
            for message in client.submit_and_stream(kind="sleep", seconds=0,
                                                    tag="warmup"):
                if message.get("event") == "failed":
                    raise BenchError("warm-up job failed")

    def drain(self):
        """Drain (writes the span sidecar), then wait for exit."""
        try:
            with self.client() as client:
                client.drain()
            self.process.wait(timeout=30)
        except Exception:
            self.kill()
            raise
        finally:
            self._log.close()

    def kill(self):
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self._log.close()


# -- closed-loop client ------------------------------------------------------

def failed_record(kind, cell, exc):
    return {"kind": kind, "cell": cell, "failed": True, "lost": True,
            "error": "%s: %s" % (type(exc).__name__, exc), "state": None,
            "stats": None, "digest": None, "latency_ms": None}


def submit(client, kind, cell, admitted=None):
    """One submission through ``grid_done``; returns its record.

    ``admitted()``, if given, runs once the server has admitted the
    submission, before its result is awaited.
    """
    from repro.serve.client import ServeError
    name, config, opt = cell
    start = time.monotonic()
    try:
        record = {"kind": kind, "cell": cell, "failed": False,
                  "lost": False, "error": None, "state": None,
                  "stats": None}
        for message in client.submit_and_stream(
                benchmarks=[name], configs=[config],
                overrides=_overrides(opt)):
            if admitted is not None:
                admitted()
                admitted = None
            event = message.get("event")
            if event in ("done", "cached") and "payload" in message:
                record["state"] = event
                record["stats"] = message["payload"]["stats"]
            elif event == "failed":
                record["failed"] = True
                record["error"] = message.get("error")
            elif event == "grid_done" and message.get("failed"):
                record["failed"] = True
    except (ServeError, OSError) as exc:
        # Refused (backpressure), timed out or cut off: counted, and the
        # connection is replaced.
        record = failed_record(kind, cell, exc)
    record["latency_ms"] = (time.monotonic() - start) * 1000.0
    if record["stats"] is None:
        record["digest"] = None
        if not record["failed"]:
            record["failed"] = True
            record["error"] = "grid_done without a result"
    else:
        record["digest"] = stats_digest(record["stats"])
        # Hits keep only the digest: thousands of stats dicts held until
        # the run ends would grow the client's heap, and its garbage
        # collection pauses would show up as job latency.
        if kind not in ("fresh", "disk"):
            record["stats"] = None
    return record


class Connection:
    """A client connection to the server, replaced when it is lost."""

    def __init__(self, server):
        self.server = server
        self.client = None

    def submit(self, kind, cell, admitted=None):
        try:
            if self.client is None:
                self.client = self.server.client()
            record = submit(self.client, kind, cell, admitted)
        except OSError as exc:
            record = failed_record(kind, cell, exc)
        if record["lost"]:
            self.close()
        return record

    def close(self):
        if self.client is not None:
            self.client.close()
            self.client = None


def drive(server, seed, fresh, kinds, slices):
    """Run one session's schedule; returns the per-submission records,
    each tagged with the calibration slice (appended to ``slices``) that
    ran last before it."""
    rng = random.Random(seed)
    fresh, kinds, preseeded = list(fresh), list(kinds), list(PRESEEDED)
    owed, records = [], []
    main, side = Connection(server), Connection(server)
    try:
        for index in range(len(kinds)):
            if index % CALIBRATE_EVERY == 0:
                slices.append(calibration_slice())
            if kinds[index] == "memo" and not owed:
                later = next((i for i in range(index + 1, len(kinds))
                              if kinds[i] != "memo"), None)
                if later is not None:
                    kinds[index], kinds[later] = kinds[later], "memo"
            kind = kinds[index]
            admitted = None
            if kind == "fresh":
                cell = fresh.pop(0)

                def admitted(cell=cell):
                    records.append(side.submit("dedup", cell))
            elif kind == "disk":
                cell = preseeded.pop(0)
            elif owed:
                cell = owed.pop(rng.randrange(len(owed)))
            else:
                # Only when every completed cell failed.
                cell = PRESEEDED[index % len(PRESEEDED)]
            first = len(records)
            record = main.submit(kind, cell, admitted)
            records.append(record)
            for made in records[first:]:
                made["block"] = len(slices) - 1
            if kind in ("fresh", "disk") and not record["failed"]:
                owed.extend([cell] * MEMO_REPEATS)
        slices.append(calibration_slice())
    finally:
        main.close()
        side.close()
    return records


# -- one session -------------------------------------------------------------

def session(seed, work, seed_cache):
    """Start a server on a copy of the pre-seeded cache, drive the
    traffic, drain.  Returns the session's measurements."""
    os.makedirs(work)
    env = child_env(work)
    shutil.copytree(seed_cache, env["REPRO_SIMCACHE_DIR"])
    start = time.monotonic()
    server = Server(env, os.path.join(work, "serve.log"))
    try:
        server.warm()
        with server.client() as client:
            before = client.stats()
        ready = time.monotonic()
        fresh, kinds = make_traffic(seed)
        cpu0 = tree_cpu_seconds(server.process.pid) + time.process_time()
        wall0, unix0 = time.monotonic(), time.time()
        slices = []
        records = drive(server, seed, fresh, kinds, slices)
        wall = time.monotonic() - wall0 - sum(w for _, w in slices)
        cpu = tree_cpu_seconds(server.process.pid) + time.process_time() \
            - cpu0 - sum(c for c, _ in slices)
        with server.client() as client:
            after = client.stats()
    except BaseException:
        server.kill()
        raise
    server.drain()
    spans_path = os.path.join(env["REPRO_MANIFEST_DIR"], "serve_trace.ndjson")
    spans = []
    if os.path.exists(spans_path):
        with open(spans_path) as stream:
            spans = [json.loads(line) for line in stream if line.strip()]
    # The warm-up job's spans are set-up, not traffic.
    spans = [span for span in spans if span["start_unix"] >= unix0]
    return {"start_s": ready - start, "wall_s": wall, "cpu_s": cpu,
            "calibration": [c for c, _ in slices], "records": records,
            "before": before["stats"], "after": after["stats"],
            "spans": spans}


def run(seed, seconds, trace, work, t_start):
    """Run the workload; returns the result dict for run.py.

    A traced run is the same sessions: the server's telemetry is always
    on and is only read from outside, so there is no untraced variant to
    compare and ``trace.overhead_pct`` is 0 by construction.
    """
    seed_env = child_env(os.path.join(work, "seed"))
    fresh, kinds = make_traffic(seed)
    expected, geometry = preseed(PRESEEDED, seed_env)
    preseed_s = time.monotonic() - t_start
    runs = [session(seed, os.path.join(work, "session%d" % i),
                    seed_env["REPRO_SIMCACHE_DIR"])
            for i in range(sessions(seconds))]
    attempted, failed, problems = _check(runs, expected,
                                         len(kinds) + len(fresh))
    result = {"backend": geometry.backend, "repeats": len(runs),
              "attempted": attempted, "failed": failed,
              "problems": problems}
    if trace:
        result["layers"] = _median_of(
            [_layer_metrics(sess, geometry) for sess in runs])
        return result
    per_session = [_end_to_end(sess) for sess in runs]
    result["samples"] = {name: [metrics[name] for metrics in per_session]
                         for name in per_session[0]}
    result["samples"].update({
        "setup_s": [(preseed_s + sess["start_s"])
                    * at_reference(sess["calibration"]) for sess in runs],
        "peak_rss_mb": [peak_rss_mb()],
        "success_rate": [1.0 - failed / attempted],
    })
    first = _latencies(runs[0])
    slices = [s for sess in runs for s in sess["calibration"]]
    unscaled = ("unscaled: cpu_s %.4g s, job_p50_ms %.4g ms (medians of %d "
                "sessions); calibration slice median %.2f ms, reference "
                "%.2f ms" % (median([sess["cpu_s"] for sess in runs]),
                             median([median(_latencies(sess))
                                     for sess in runs]),
                             len(runs), 1000.0 * median(slices),
                             1000.0 * REFERENCE_SLICE_S))
    result["notes"] = {"job_samples": len(first),
                       "job_tail_pct": tail(first)[1],
                       "lines": _kind_lines(runs[0]) + [unscaled]}
    return result


def _latencies(sess):
    return [record["latency_ms"] for record in sess["records"]
            if record["latency_ms"] is not None]


def _kind_lines(sess):
    """Per kind of submission: count, median latency, share of the summed
    latency; and the share of the session's CPU time the worker spent
    executing fresh cells."""
    records = [record for record in sess["records"]
               if record["latency_ms"] is not None]
    total = sum(record["latency_ms"] for record in records) or 1.0
    lines = []
    for kind in KINDS:
        latencies = [record["latency_ms"] for record in records
                     if record["kind"] == kind]
        lines.append("%-6s %4d submissions  p50 %8.1f ms  %5.1f%% of "
                     "summed latency" % (kind, len(latencies),
                                         median(latencies),
                                         100.0 * sum(latencies) / total))
    lines.append("worker.execute spans: %.1f%% of the session's CPU time"
                 % (100.0 * _exec_share(sess)))
    return lines


def _exec_share(sess):
    return sum(_span_ms(sess["spans"], "worker.execute")) / 1000.0 \
        / sess["cpu_s"]


def _median_of(dicts):
    return {key: median([d[key] for d in dicts]) for key in dicts[0]}


def _check(sessions, expected, planned):
    """Failures: failed, refused, timed-out or never-sent submissions, and
    any cell whose served stats differ from the in-process run
    (pre-seeded cells) or from an earlier serving of the same cell."""
    attempted = failed = 0
    problems = []
    seen = dict(expected)
    for sess in sessions:
        records = sess["records"]
        attempted += planned
        if len(records) < planned:
            failed += planned - len(records)
            problems.append("%d submission(s) never sent"
                            % (planned - len(records)))
        for record in records:
            cell = tuple(record["cell"])
            if record["failed"]:
                failed += 1
                problems.append("%s %s: %s" % (record["kind"], cell,
                                               record["error"]))
            elif seen.setdefault(cell, record["digest"]) \
                    != record["digest"]:
                failed += 1
                problems.append("%s: served stats differ" % (cell,))
    return attempted, failed, problems


def _distinct_stats(sess):
    cells = {}
    for record in sess["records"]:
        if record["stats"] is not None:
            cells.setdefault(tuple(record["cell"]), record["stats"])
    return cells


def _end_to_end(sess):
    """One session's traffic-phase metrics, host times at the reference
    speed: each latency by the calibration slices around it, the
    session's CPU and wall time by all of them."""
    records = sess["records"]
    slices = sess["calibration"]
    factors = speed_factors(slices, len(slices) - 1)
    overall = at_reference(slices)
    latencies = [record["latency_ms"] * factors[record["block"]]
                 for record in records if record["latency_ms"] is not None]
    executed = [record["stats"] for record in records
                if record["kind"] == "fresh" and record["state"] == "done"]
    instrs = sum(stats["instrs_issued"] for stats in executed)
    cpu = sess["cpu_s"] * overall
    return {
        "cpu_s": cpu,
        "sim_kips": instrs / cpu / 1000.0,
        "sim_cycles": sum(stats["cycles"]
                          for stats in _distinct_stats(sess).values()),
        "job_p50_ms": median(latencies),
        "job_p95_ms": tail(latencies)[0],
        "jobs_per_s": len(records) / (sess["wall_s"] * overall),
    }


def _span_ms(spans, name):
    return [(span["end_unix"] - span["start_unix"]) * 1000.0
            for span in spans
            if span["name"] == name and span.get("end_unix") is not None]


def _layer_metrics(sess, geometry):
    before, after = sess["before"], sess["after"]

    def delta(key):
        return after[key] - before[key]

    spans = sess["spans"]
    queue = _span_ms(spans, "serve.queue")
    execute = _span_ms(spans, "worker.execute")
    jobs = len(sess["records"])
    reused = delta("memo_hits") + delta("dedup_hits") + delta("cache_hits")
    workers = max(1, after["num_workers"])
    metrics = sim_layer_metrics(list(_distinct_stats(sess).values()),
                                geometry.num_lanes,
                                geometry.arch_vector_regs)
    latencies = [record["latency_ms"] for record in sess["records"]
                 if record["latency_ms"] is not None]
    metrics.update({
        "serve.admit_ms_p50": median(_span_ms(spans, "serve.submit")),
        "serve.queue_ms_p50": median(queue),
        "serve.queue_ms_p95": tail(queue)[0],
        "serve.exec_ms_p50": median(execute),
        "serve.exec_ms_p95": tail(execute)[0],
        "serve.exec_share": _exec_share(sess),
        "serve.worker_utilization": min(1.0, (
            after["busy_seconds"] - before["busy_seconds"])
            / (sess["wall_s"] * workers)),
        "serve.jobs": jobs,
        "serve.reuse_ratio": reused / jobs if jobs else 0.0,
        "serve.executed": delta("executed"),
        "serve.cache_hits": delta("cache_hits"),
        "serve.memo_hits": delta("memo_hits"),
        "serve.dedup_hits": delta("dedup_hits"),
        "serve.retries": delta("retries"),
        "job_samples": len(latencies),
        "job_tail_pct": tail(latencies)[1],
        "trace.overhead_pct": 0.0,
    })
    return metrics
