"""Unit tests for the service's protocol, job model, metrics, and
scheduler policy (no sockets, no worker processes)."""

import asyncio

import pytest

from repro.serve import protocol
from repro.serve.jobs import (
    CACHED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    VERIFY_GEOMETRY,
    GridError,
    JobSpec,
    compute_key,
    expand_grid,
)
from repro.serve.metrics import ServeMetrics, percentile
from repro.serve.scheduler import Backpressure, Scheduler


# ---------------------------------------------------------------------------
# Wire protocol


class TestFraming:
    def test_encode_decode_roundtrip(self):
        message = {"op": "submit", "benchmarks": ["VecAdd"], "seq": 7}
        line = protocol.encode(message)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert protocol.decode(line) == message

    def test_decode_str_and_bytes(self):
        assert protocol.decode('{"op":"ping"}\n') == {"op": "ping"}
        assert protocol.decode(b'{"op":"ping"}\n') == {"op": "ping"}

    @pytest.mark.parametrize("line", [b"", b"   \n", b"not json\n",
                                      b"[1,2]\n", b"42\n"])
    def test_bad_frames_raise(self, line):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(line)

    def test_oversized_frame_rejected(self):
        line = b'{"pad":"' + b"x" * protocol.MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(line)

    def test_reply_echoes_seq(self):
        assert protocol.reply({"op": "ping", "seq": 3}, pong=True) == \
            {"ok": True, "seq": 3, "pong": True}
        assert protocol.reply({"op": "ping"}, pong=True) == \
            {"ok": True, "pong": True}

    def test_error_carries_stable_code(self):
        message = protocol.error({"seq": 9}, protocol.E_BACKPRESSURE,
                                 "queue full")
        assert message == {"ok": False, "seq": 9,
                           "code": "backpressure", "error": "queue full"}

    def test_event_frame(self):
        assert protocol.event("done", id="j000001") == \
            {"event": "done", "id": "j000001"}


# ---------------------------------------------------------------------------
# Job model


class TestJobSpec:
    def test_eval_roundtrip(self):
        spec = JobSpec(benchmark="VecAdd", config_name="baseline", scale=2,
                       overrides={"num_warps": 4}, verify=True)
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_sleep_roundtrip(self):
        spec = JobSpec(kind="sleep", seconds=1.5, tag="t1")
        assert JobSpec.from_dict(spec.as_dict()) == spec

    def test_labels(self):
        assert JobSpec(benchmark="VecAdd", config_name="baseline",
                       scale=1).label() == "VecAdd/baseline/s1"
        assert "verified" in JobSpec(benchmark="VecAdd",
                                     verify=True).label()
        assert "sleep" in JobSpec(kind="sleep", seconds=0.5).label()


class TestExpandGrid:
    def test_full_product(self):
        specs = expand_grid({"benchmarks": ["VecAdd", "MatMul"],
                             "configs": ["baseline", "cheri_opt"],
                             "scales": [1, 2]})
        assert len(specs) == 8
        labels = {spec.label() for spec in specs}
        assert "VecAdd/baseline/s1" in labels
        assert "MatMul/cheri_opt/s2" in labels

    def test_case_insensitive_benchmarks(self):
        specs = expand_grid({"benchmarks": ["vecadd"],
                             "configs": ["baseline"]})
        assert specs[0].benchmark == "VecAdd"

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(GridError):
            expand_grid({"benchmarks": ["NotABench"]})

    def test_unknown_config_rejected(self):
        with pytest.raises(GridError):
            expand_grid({"benchmarks": ["VecAdd"],
                         "configs": ["no_such_config"]})

    def test_non_scalar_override_rejected(self):
        with pytest.raises(GridError):
            expand_grid({"benchmarks": ["VecAdd"],
                         "overrides": {"num_warps": [4]}})

    def test_verify_applies_small_geometry(self):
        specs = expand_grid({"benchmarks": ["VecAdd"],
                             "configs": ["cheri_opt"], "verify": True})
        assert specs[0].overrides["num_warps"] == \
            VERIFY_GEOMETRY["num_warps"]
        assert specs[0].verify

    def test_verify_geometry_can_be_overridden(self):
        specs = expand_grid({"benchmarks": ["VecAdd"], "verify": True,
                             "overrides": {"num_warps": 8}})
        assert specs[0].overrides["num_warps"] == 8

    def test_sleep_kind(self):
        specs = expand_grid({"kind": "sleep", "seconds": 2.5, "tag": "x"})
        assert len(specs) == 1
        assert specs[0].kind == "sleep"
        assert specs[0].seconds == 2.5


class TestComputeKey:
    def test_sleep_keys_depend_on_parameters(self):
        one = compute_key(JobSpec(kind="sleep", seconds=1.0, tag="a"))
        same = compute_key(JobSpec(kind="sleep", seconds=1.0, tag="a"))
        other = compute_key(JobSpec(kind="sleep", seconds=1.0, tag="b"))
        assert one == same
        assert one != other
        assert one.startswith("sleep-")

    def test_eval_key_matches_runner_disk_key(self):
        from repro.eval.runner import job_key
        spec = JobSpec(benchmark="VecAdd", config_name="baseline",
                       overrides={"num_warps": 4, "num_lanes": 4})
        assert compute_key(spec) == job_key("VecAdd", "baseline", 1,
                                            num_warps=4, num_lanes=4)

    def test_verified_key_is_distinct(self):
        plain = JobSpec(benchmark="VecAdd", config_name="baseline",
                        overrides={"num_warps": 4, "num_lanes": 4})
        checked = JobSpec(benchmark="VecAdd", config_name="baseline",
                          overrides={"num_warps": 4, "num_lanes": 4},
                          verify=True)
        assert compute_key(checked) == compute_key(plain) + "-lockstep"


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_percentile_nearest_rank(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.95) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 3.0

    def test_snapshot_shape(self):
        metrics = ServeMetrics()
        metrics.note_latency(0.5, 0.2)
        metrics.note_pending(3)
        snapshot = metrics.snapshot(num_workers=2, pending=1, running=1)
        for field in ("uptime_seconds", "dedup_hits", "cache_hits",
                      "executed", "queue_depth", "peak_pending",
                      "worker_utilization", "latency_p50_seconds",
                      "latency_p95_seconds", "exec_p50_seconds"):
            assert field in snapshot
        assert snapshot["peak_pending"] == 3
        assert snapshot["queue_depth"] == 1
        assert snapshot["latency_p50_seconds"] == 0.5

    def test_percentiles_remember_full_history(self):
        # The old 4096-sample drop-oldest reservoir forgot everything
        # before the most recent traffic: a burst of fast jobs at the
        # end of a long session erased the slow majority from p99.  The
        # streaming histogram observes every job ever completed.
        metrics = ServeMetrics()
        for _ in range(5904):
            metrics.note_latency(100.0, 100.0)
        for _ in range(4096):          # a full old-reservoir of fast jobs
            metrics.note_latency(0.001, 0.001)
        snapshot = metrics.snapshot()
        assert snapshot["completed_samples"] == 10000
        # 59% of history is slow, so the true p99 is 100s; the reservoir
        # would have reported 0.001s here.
        assert snapshot["latency_p99_seconds"] == 100.0
        assert snapshot["latency_p50_seconds"] == 100.0

    def test_counters_mirrored_into_registry_exposition(self):
        metrics = ServeMetrics()
        metrics.executed += 3
        metrics.note_latency(0.5, 0.2)
        exposition = metrics.registry.exposition()
        assert "serve_executed_total 3" in exposition
        assert "serve_job_latency_seconds_count 1" in exposition

    def test_utilization_clamped(self):
        clock = iter([0.0, 10.0]).__next__
        metrics = ServeMetrics(clock=clock)
        metrics.note_busy(7.0)
        assert metrics.utilization(1) == 0.7


# ---------------------------------------------------------------------------
# Scheduler policy (driven directly, with a fake pool)


class FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.job_id = None
        self.kill_reason = None
        self.assigned = []

    def alive(self):
        return True


class FakePool:
    """Deterministic stand-in for WorkerPool: records assignments."""

    def __init__(self, num_workers=1):
        self.workers = [FakeWorker(index) for index in range(num_workers)]
        self.killed = []

    def by_id(self, worker_id):
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        return None

    def idle_workers(self):
        return [worker for worker in self.workers
                if worker.job_id is None]

    def assign(self, worker, job_id, spec_dict, trace_ctx=None):
        worker.job_id = job_id
        worker.assigned.append((job_id, spec_dict))

    def release(self, worker):
        worker.job_id = None

    def kill(self, worker, reason):
        worker.kill_reason = reason
        self.killed.append((worker.worker_id, reason))


def sleep_cell(tag, seconds=1.0, cached=None):
    spec = JobSpec(kind="sleep", seconds=seconds, tag=tag)
    return (spec, compute_key(spec), cached)


def make_scheduler(num_workers=1, **kwargs):
    pool = FakePool(num_workers)
    scheduler = Scheduler(pool, ServeMetrics(), **kwargs)
    return scheduler, pool


class TestSchedulerAdmission:
    def test_fresh_job_is_dispatched(self):
        scheduler, pool = make_scheduler()
        grid_id, jobs = scheduler.admit([sleep_cell("a")])
        assert grid_id == "g0001"
        assert jobs[0].state == QUEUED
        assert pool.workers[0].job_id == jobs[0].id
        assert scheduler.metrics.jobs_accepted == 1

    def test_duplicate_cells_in_one_grid_make_one_job(self):
        scheduler, _ = make_scheduler()
        _, jobs = scheduler.admit([sleep_cell("a"), sleep_cell("a")])
        assert jobs[0] is jobs[1]
        assert scheduler.metrics.jobs_accepted == 1
        assert scheduler.metrics.dedup_hits == 1

    def test_inflight_dedup_across_submissions(self):
        scheduler, _ = make_scheduler()
        _, first = scheduler.admit([sleep_cell("a")])
        _, second = scheduler.admit([sleep_cell("a")])
        assert first[0] is second[0]
        assert scheduler.metrics.dedup_hits == 1
        assert scheduler.metrics.memo_hits == 0

    def test_terminal_job_serves_as_memo(self):
        scheduler, pool = make_scheduler()
        _, jobs = scheduler.admit([sleep_cell("a")])
        scheduler.on_done(0, jobs[0].id, {"slept": 1.0})
        _, again = scheduler.admit([sleep_cell("a")])
        assert again[0] is jobs[0]
        assert again[0].state == DONE
        assert scheduler.metrics.memo_hits == 1
        assert pool.workers[0].assigned == [(jobs[0].id,
                                             jobs[0].spec.as_dict())]

    def test_cached_payload_completes_without_dispatch(self):
        scheduler, pool = make_scheduler()
        payload = {"stats": {"cycles": 1}, "cache_source": "disk"}
        _, jobs = scheduler.admit([sleep_cell("a", cached=payload)])
        assert jobs[0].state == CACHED
        assert jobs[0].payload is payload
        assert jobs[0].done_event.is_set()
        assert scheduler.metrics.cache_hits == 1
        assert pool.workers[0].assigned == []

    def test_backpressure_rejects_whole_submission(self):
        scheduler, _ = make_scheduler(max_pending=2)
        scheduler.admit([sleep_cell("a"), sleep_cell("b")])
        with pytest.raises(Backpressure):
            scheduler.admit([sleep_cell("c")])
        assert scheduler.metrics.submissions_rejected == 1
        # Duplicates of in-flight keys are not "novel" and still fit.
        _, jobs = scheduler.admit([sleep_cell("a")])
        assert jobs[0].key in scheduler.by_key


class TestSchedulerFailurePolicy:
    def test_crash_requeues_then_gives_up(self):
        scheduler, pool = make_scheduler(max_retries=1)
        _, jobs = scheduler.admit([sleep_cell("a")])
        job = jobs[0]
        # First crash: retried (requeued and immediately redispatched).
        pool.release(pool.workers[0])
        scheduler.on_casualty(job.id, None)
        assert job.state == QUEUED
        assert job.attempts == 1
        assert scheduler.metrics.retries == 1
        scheduler.dispatch()
        # Second crash: retries exhausted -> failed.
        pool.release(pool.workers[0])
        scheduler.on_casualty(job.id, None)
        assert job.state == FAILED
        assert "crashed" in job.error
        assert scheduler.metrics.failed == 1

    def test_timeout_fails_without_retry(self):
        scheduler, pool = make_scheduler(job_timeout=0.0)
        _, jobs = scheduler.admit([sleep_cell("a")])
        job = jobs[0]
        scheduler.on_started(0, job.id)
        assert job.state == RUNNING
        scheduler.check_timeouts()
        assert pool.killed == [(0, "timeout")]
        pool.release(pool.workers[0])
        scheduler.on_casualty(job.id, "timeout")
        assert job.state == FAILED
        assert "timed out" in job.error
        assert scheduler.metrics.timeouts == 1
        assert scheduler.metrics.retries == 0

    def test_worker_exception_fails_immediately(self):
        scheduler, _ = make_scheduler()
        _, jobs = scheduler.admit([sleep_cell("a")])
        scheduler.on_error(0, jobs[0].id, "ValueError: boom")
        assert jobs[0].state == FAILED
        assert "ValueError" in jobs[0].error

    def test_late_result_after_failure_is_dropped(self):
        scheduler, _ = make_scheduler()
        _, jobs = scheduler.admit([sleep_cell("a")])
        scheduler.on_error(0, jobs[0].id, "ValueError: boom")
        scheduler.on_done(0, jobs[0].id, {"slept": 1.0})
        assert jobs[0].state == FAILED
        assert jobs[0].payload is None


class TestSchedulerEvents:
    def drain_queue(self, queue):
        events = []
        while True:
            try:
                events.append(queue.get_nowait())
            except asyncio.QueueEmpty:
                return events

    def test_watcher_sees_lifecycle_through_grid_done(self):
        scheduler, _ = make_scheduler()
        grid_id, jobs = scheduler.admit([sleep_cell("a")])
        queue = asyncio.Queue()
        replay = scheduler.watch(grid_id, queue)
        assert [message["event"] for message in replay] == ["queued"]
        scheduler.on_started(0, jobs[0].id)
        scheduler.on_done(0, jobs[0].id, {"slept": 1.0})
        names = [message["event"] for message in self.drain_queue(queue)]
        assert names == ["started", "done", "progress", "grid_done"]

    def test_replay_of_terminal_job_carries_payload(self):
        scheduler, _ = make_scheduler()
        grid_id, jobs = scheduler.admit([sleep_cell("a")])
        scheduler.on_done(0, jobs[0].id, {"slept": 1.0})
        replay = scheduler.watch(grid_id, asyncio.Queue())
        assert replay[0]["event"] == "done"
        assert replay[0]["payload"] == {"slept": 1.0}

    def test_watch_unknown_grid(self):
        scheduler, _ = make_scheduler()
        assert scheduler.watch("g9999", asyncio.Queue()) is None

    def test_deduped_job_fans_out_to_both_grids(self):
        scheduler, _ = make_scheduler()
        first_grid, jobs = scheduler.admit([sleep_cell("a")])
        second_grid, _ = scheduler.admit([sleep_cell("a")])
        queues = {grid: asyncio.Queue()
                  for grid in (first_grid, second_grid)}
        for grid, queue in queues.items():
            scheduler.watch(grid, queue)
        scheduler.on_started(0, jobs[0].id)
        scheduler.on_done(0, jobs[0].id, {"slept": 1.0})
        for queue in queues.values():
            names = [m["event"] for m in self.drain_queue(queue)]
            assert "done" in names
            assert "grid_done" in names

    def test_grid_done_counts_failures(self):
        scheduler, _ = make_scheduler()
        grid_id, jobs = scheduler.admit([sleep_cell("a")])
        queue = asyncio.Queue()
        scheduler.watch(grid_id, queue)
        scheduler.on_error(0, jobs[0].id, "ValueError: boom")
        done = [message for message in self.drain_queue(queue)
                if message["event"] == "grid_done"]
        assert done[0]["failed"] == 1
        assert scheduler.grid_done(grid_id)

    def test_all_idle_tracks_inflight(self):
        scheduler, _ = make_scheduler()
        assert scheduler.all_idle()
        _, jobs = scheduler.admit([sleep_cell("a")])
        assert not scheduler.all_idle()
        scheduler.on_done(0, jobs[0].id, {"slept": 1.0})
        assert scheduler.all_idle()


# ---------------------------------------------------------------------------
# Bounded tables (caps lowered so a few cells overflow them)


@pytest.fixture()
def small_caps(monkeypatch):
    from repro.serve import scheduler as scheduler_module
    monkeypatch.setattr(scheduler_module, "MAX_TERMINAL_JOBS", 4)
    monkeypatch.setattr(scheduler_module, "MAX_FINISHED_GRIDS", 3)


def cached_payload(tag):
    return {"stats": {"cycles": 1}, "cache_source": "disk", "tag": tag}


def complete(scheduler, tag):
    """Admit ``tag`` fresh and finish it on worker 0; returns the job."""
    _, jobs = scheduler.admit([sleep_cell(tag)])
    scheduler.on_done(0, jobs[0].id, {"slept": tag})
    return jobs[0]


class NoScanDict(dict):
    """A job table that fails any whole-table scan."""

    def __iter__(self):
        raise AssertionError("job table scanned")

    def values(self):
        raise AssertionError("job table scanned")

    def items(self):
        raise AssertionError("job table scanned")


@pytest.mark.usefixtures("small_caps")
class TestSchedulerBounds:
    def test_memo_hits_retain_no_memory(self):
        import tracemalloc
        scheduler, _ = make_scheduler()
        job = complete(scheduler, "a")
        cell = sleep_cell("a")
        for _ in range(100):    # warm every table up to its cap
            scheduler.admit([cell])
        hits = 10_000
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(hits):
                scheduler.admit([cell])
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert scheduler.metrics.memo_hits == 100 + hits
        # A hit that kept its grid, or a grid id on its job, would
        # retain about 600 B.
        assert grown / hits < 8, \
            "%.1f B retained per memo hit" % (grown / hits)
        assert len(scheduler.grids) <= 3
        assert len(job.grids) == 0

    def test_admission_never_scans_the_job_table(self):
        scheduler, _ = make_scheduler()
        for tag in "abc":
            complete(scheduler, tag)
        scheduler.jobs = NoScanDict(scheduler.jobs)
        _, jobs = scheduler.admit([sleep_cell("a"), sleep_cell("d")])
        assert scheduler.in_flight() == 1
        assert scheduler.running() == 0
        scheduler.on_done(0, jobs[1].id, {"slept": "d"})
        assert scheduler.in_flight() == 0
        assert scheduler.all_idle()

    def test_terminal_table_holds_at_cap_in_lru_order(self):
        scheduler, _ = make_scheduler()
        for tag in "abcd":
            complete(scheduler, tag)
        scheduler.admit([sleep_cell("a")])      # memo hit refreshes "a"
        scheduler.admit([sleep_cell("e", cached=cached_payload("e"))])
        assert {job.spec.tag for job in scheduler.jobs.values()} == \
            set("acde")
        for tag in "fghij":
            scheduler.admit([sleep_cell(tag, cached=cached_payload(tag))])
        assert len(scheduler.jobs) == len(scheduler.by_key) == 4
        assert {job.spec.tag for job in scheduler.jobs.values()} == \
            set("ghij")
        assert scheduler.metrics.jobs_evicted == 6

    def test_evicted_key_falls_through_to_cached_payload(self):
        scheduler, pool = make_scheduler()
        old = complete(scheduler, "a")
        for tag in "bcde":
            scheduler.admit([sleep_cell(tag, cached=cached_payload(tag))])
        assert old.key not in scheduler.by_key
        # The server probes the disk cache for a key the table lost.
        _, jobs = scheduler.admit([sleep_cell("a",
                                              cached=cached_payload("a"))])
        assert jobs[0] is not old
        assert jobs[0].state == CACHED
        assert scheduler.metrics.memo_hits == 0
        assert scheduler.metrics.cache_hits == 5
        assert pool.workers[0].assigned == [(old.id, old.spec.as_dict())]

    def test_inflight_jobs_and_watched_grids_survive_eviction(self):
        scheduler, pool = make_scheduler()
        slow_grid, slow = scheduler.admit([sleep_cell("slow")])
        watched_grid, watched = scheduler.admit(
            [sleep_cell("w", cached=cached_payload("w"))])
        queue = asyncio.Queue()
        scheduler.watch(watched_grid, queue)
        for index in range(20):
            tag = "x%d" % index
            scheduler.admit([sleep_cell(tag, cached=cached_payload(tag))])
        assert scheduler.metrics.jobs_evicted > 0
        assert scheduler.jobs[slow[0].id] is slow[0]
        assert scheduler.by_key[slow[0].key] is slow[0]
        assert slow_grid in scheduler.grids
        assert watched_grid in scheduler.grids
        # The watched grid still replays its (evicted) cell in full.
        assert watched[0].id not in scheduler.jobs
        replay = scheduler.watch(watched_grid, queue)
        assert replay[0]["event"] == CACHED
        assert replay[0]["payload"] == cached_payload("w")
        # Once finished and unwatched, both grids become evictable.
        scheduler.on_done(0, slow[0].id, {"slept": 1.0})
        scheduler.unwatch(watched_grid, queue)
        for index in range(20, 40):
            tag = "x%d" % index
            scheduler.admit([sleep_cell(tag, cached=cached_payload(tag))])
        assert slow_grid not in scheduler.grids
        assert watched_grid not in scheduler.grids
        assert len(scheduler.grids) == 3
        assert len(scheduler.jobs) == 4
        assert pool.workers[0].assigned == [(slow[0].id,
                                             slow[0].spec.as_dict())]


class FakeWriter:
    """Collects the frames a server handler writes (NDJSON: one frame a
    line, any number of lines a write)."""

    def __init__(self):
        self.frames = []
        self.writes = 0

    def write(self, data):
        self.writes += 1
        self.frames.extend(protocol.decode(line)
                           for line in data.splitlines())

    async def drain(self):
        pass


@pytest.mark.usefixtures("small_caps")
class TestSubscribeAfterEviction:
    def subscribe(self, server, grid_id):
        writer = FakeWriter()
        asyncio.run(server._dispatch_op(
            {"op": "subscribe", "grid": grid_id, "seq": 1}, writer))
        return writer.frames

    def make_server(self):
        from repro.serve.server import ServeServer
        server = ServeServer()
        server.scheduler, _ = make_scheduler()
        return server

    def test_evicted_grid_is_unknown(self):
        server = self.make_server()
        first, _ = server.scheduler.admit(
            [sleep_cell("a", cached=cached_payload("a"))])
        for tag in "bcd":
            server.scheduler.admit(
                [sleep_cell(tag, cached=cached_payload(tag))])
        assert first not in server.scheduler.grids
        frames = self.subscribe(server, first)
        assert frames == [protocol.error(
            {"seq": 1}, protocol.E_UNKNOWN_GRID,
            "unknown grid %r" % first)]

    def test_retained_finished_grid_replays_every_cell(self):
        server = self.make_server()
        cells = [sleep_cell(tag, cached=cached_payload(tag))
                 for tag in "abcdef"]
        grid_id, jobs = server.scheduler.admit(cells)
        assert server.scheduler.metrics.jobs_evicted == 2
        frames = self.subscribe(server, grid_id)
        assert frames[0] == {"ok": True, "seq": 1, "grid": grid_id}
        replay = frames[1:-1]
        assert [frame["id"] for frame in replay] == \
            [job.id for job in jobs]
        assert all(frame["event"] == CACHED for frame in replay)
        assert [frame["payload"]["tag"] for frame in replay] == \
            list("abcdef")
        assert frames[-1] == protocol.event("grid_done", grid=grid_id,
                                            jobs=6, failed=0)

    def test_disconnected_subscriber_releases_the_grid(self):
        server = self.make_server()
        grid_id, _ = server.scheduler.admit(
            [sleep_cell("a", cached=cached_payload("a"))])

        class GoneWriter(FakeWriter):
            def write(self, data):
                raise ConnectionResetError

        with pytest.raises(ConnectionResetError):
            asyncio.run(server._dispatch_op(
                {"op": "subscribe", "grid": grid_id}, GoneWriter()))
        assert not server.scheduler.grids[grid_id]["watchers"]
        for tag in "bcd":
            server.scheduler.admit(
                [sleep_cell(tag, cached=cached_payload(tag))])
        assert grid_id not in server.scheduler.grids


# ---------------------------------------------------------------------------
# Hit admission: memo and dedup hits never leave the event loop


def _no_wall_clock(frames):
    """Frames without the jobs' ``wall_seconds``, which read the clock."""
    out = []
    for frame in frames:
        frame = dict(frame)
        if "jobs" in frame and isinstance(frame["jobs"], list):
            frame["jobs"] = [{k: v for k, v in job.items()
                              if k != "wall_seconds"}
                             for job in frame["jobs"]]
        out.append(frame)
    return out


class TestHitAdmission:
    REQUEST = {"op": "submit", "seq": 1, "benchmarks": ["VecAdd"],
               "configs": ["baseline"],
               "overrides": {"num_warps": 4, "num_lanes": 4}}
    LABEL = "VecAdd/baseline/s1/num_lanes=4,num_warps=4"

    @pytest.fixture()
    def probes(self, monkeypatch):
        """Spy on the server's disk probes: labels probed, in order.
        A probe answers from ``probes.disk`` (label -> payload)."""
        from repro.serve import server as server_module

        class Probes(list):
            disk = {}

        calls = Probes()

        def probe(spec):
            calls.append(spec.label())
            return calls.disk.get(spec.label())

        monkeypatch.setattr(server_module, "probe_cache", probe)
        return calls

    @pytest.fixture()
    def no_executor(self, monkeypatch):
        """Enter to make any executor hop raise."""
        import contextlib

        def hop(*args, **kwargs):
            raise AssertionError("admission left the event loop")

        @contextlib.contextmanager
        def forbid():
            with monkeypatch.context() as patch:
                patch.setattr(asyncio.BaseEventLoop, "run_in_executor", hop)
                yield
        return forbid

    def make_server(self):
        from repro.serve.server import ServeServer
        server = ServeServer()
        server.scheduler, _ = make_scheduler()
        prepared = server.prepared = []
        prepare = server._prepare_cells

        def spy(specs):
            prepared.append([spec.label() for spec in specs])
            return prepare(specs)
        server._prepare_cells = spy
        return server

    def submit(self, server, stream=False):
        writer = FakeWriter()
        asyncio.run(server._op_submit(dict(self.REQUEST, stream=stream),
                                      writer))
        return writer

    def executor_twin(self, monkeypatch):
        """A server that admits every submission through the executor."""
        server = self.make_server()
        monkeypatch.setattr(server, "_hit_cells", lambda specs: None)
        return server

    def test_memo_hit_is_admitted_on_the_loop(self, probes, no_executor,
                                              monkeypatch):
        loop_side = self.make_server()
        twin = self.executor_twin(monkeypatch)
        for server in (loop_side, twin):
            self.submit(server)
            server.scheduler.on_done(0, "j000001", {"stats": {"cycles": 7}})
        assert probes == [self.LABEL] * 2
        with no_executor():
            hit = self.submit(loop_side, stream=True)
        reference = self.submit(twin, stream=True)
        assert loop_side.scheduler.metrics.memo_hits == 1
        assert loop_side.prepared == [[self.LABEL]]
        assert probes == [self.LABEL] * 2
        # Reply, the replayed ``done`` and ``grid_done``: one write.
        assert [frame.get("event") for frame in hit.frames] == \
            [None, DONE, "grid_done"]
        assert hit.writes == 1
        assert _no_wall_clock(hit.frames) == \
            _no_wall_clock(reference.frames)

    def test_dedup_hit_is_admitted_on_the_loop(self, probes, no_executor,
                                               monkeypatch):
        loop_side = self.make_server()
        twin = self.executor_twin(monkeypatch)
        for server in (loop_side, twin):
            self.submit(server)
        with no_executor():
            hit = self.submit(loop_side)
        reference = self.submit(twin)
        assert loop_side.scheduler.metrics.dedup_hits == 1
        assert loop_side.prepared == [[self.LABEL]]
        assert probes == [self.LABEL] * 2
        assert hit.frames == reference.frames
        assert hit.frames[0]["jobs"][0]["state"] == QUEUED

    def test_sleep_cells_are_admitted_on_the_loop(self, no_executor):
        server = self.make_server()
        request = {"op": "submit", "seq": 1, "kind": "sleep",
                   "seconds": 1.0, "tag": "a"}
        with no_executor():
            writer = FakeWriter()
            asyncio.run(server._op_submit(request, writer))
        assert server.prepared == []
        assert writer.frames[0]["jobs"][0]["state"] == QUEUED

    def test_first_key_is_prepared_off_the_loop(self, probes, monkeypatch):
        from repro.eval import runner
        monkeypatch.setattr(runner, "_job_key_memo", {})
        server = self.make_server()
        self.submit(server)
        assert server.prepared == [[self.LABEL]]
        assert probes == [self.LABEL]
        assert server.scheduler.metrics.jobs_accepted == 1

    @pytest.mark.usefixtures("small_caps")
    def test_evicted_key_is_probed_and_comes_back_cached(self, probes):
        server = self.make_server()
        self.submit(server)
        server.scheduler.on_done(0, "j000001", {"stats": {"cycles": 7}})
        for tag in "bcde":
            server.scheduler.admit([sleep_cell(tag,
                                               cached=cached_payload(tag))])
        assert not any(job.spec.kind == "eval"
                       for job in server.scheduler.by_key.values())
        probes.disk[self.LABEL] = cached_payload("disk")
        writer = self.submit(server)
        assert server.prepared == [[self.LABEL]] * 2
        assert probes == [self.LABEL] * 2
        assert writer.frames[0]["jobs"][0]["state"] == CACHED
        assert server.scheduler.metrics.memo_hits == 0
