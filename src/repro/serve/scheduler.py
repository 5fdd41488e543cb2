"""Job scheduler: admission, single-flight dedup, dispatch, fan-out.

All scheduler state lives on the asyncio event loop thread; the server
bridges pool messages onto the loop before calling in here, so there is
no locking.  Policy implemented here:

**Admission** is bounded: a submission whose cells would push the number
of non-terminal jobs past ``max_pending`` is rejected whole with a
``backpressure`` error — explicit pushback instead of unbounded queueing.

**Single-flight dedup** is by content-addressed job key.  A submitted
cell whose key matches an in-flight job attaches to that job (both
submitters stream its events and receive the one result); a key matching
a completed job still in the table is served from the server memo;
a key whose result sits in the runner's disk cache completes instantly
as ``cached``.  Only genuinely novel work reaches the worker pool.

**Bounded tables** keep a long-lived server's memory flat.  The job
table keeps at most ``MAX_TERMINAL_JOBS`` terminal jobs, least recently
used first out; a memo hit refreshes its job.  An evicted key falls
through to the disk-cache probe on its next submission, so the runner's
disk cache is the one durable store.  At most ``MAX_FINISHED_GRIDS``
finished grids that nobody watches stay available to ``subscribe``,
also LRU.  In-flight jobs, and grids that are unfinished or watched, are
never evicted.  A grid holds its :class:`Job` objects rather than ids,
so it never looks up an evicted job.

**Failure policy**: a worker that *crashes* (killed, segfault, OOM) gets
its job requeued up to ``max_retries`` times; a job that exceeds
``job_timeout`` has its worker killed and is failed without retry (the
simulator is deterministic — it would time out again); a job whose
execution *raises* is failed immediately with the worker kept alive.
"""

import time
from collections import OrderedDict, deque

from repro.obs.telemetry import Tracer
from repro.serve import protocol
from repro.serve.jobs import (
    CACHED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TERMINAL,
)

#: Terminal jobs the job table keeps (serve-mixed's working set is 12).
MAX_TERMINAL_JOBS = 1024
#: Finished grids with no watchers kept for ``subscribe`` replay.
MAX_FINISHED_GRIDS = 256


class Backpressure(Exception):
    """Admission would exceed the bounded queue."""

    def __init__(self, in_flight, requested, max_pending):
        super().__init__(
            "queue full: %d job(s) in flight + %d requested > %d max "
            "(resubmit after some complete)"
            % (in_flight, requested, max_pending))
        self.in_flight = in_flight


class Job:
    """One scheduled simulation cell."""

    def __init__(self, job_id, key, spec):
        import asyncio
        self.id = job_id
        self.key = key
        self.spec = spec
        self.state = QUEUED
        self.attempts = 0
        self.submitted_at = time.monotonic()
        self.assigned_at = None
        self.finished_at = None
        self.payload = None
        self.error = None
        self.grids = set()      # grids to emit into (until terminal)
        self.done_event = asyncio.Event()
        self.span = None        # "serve.job" span (submitted -> terminal)
        self.queue_span = None  # "serve.queue" span (submitted -> assigned)

    @property
    def terminal(self):
        return self.state in TERMINAL

    def summary(self, payload=False):
        out = {
            "id": self.id,
            "key": self.key,
            "label": self.spec.label(),
            "spec": self.spec.as_dict(),
            "state": self.state,
            "attempts": self.attempts,
            "error": self.error,
        }
        if self.finished_at is not None:
            out["wall_seconds"] = round(
                self.finished_at - self.submitted_at, 6)
        if payload and self.payload is not None:
            out["payload"] = self.payload
        return out


class Scheduler:
    def __init__(self, pool, metrics, max_pending=256, job_timeout=300.0,
                 max_retries=1, log=None, tracer=None):
        self.pool = pool
        self.metrics = metrics
        self.tracer = tracer
        self.max_pending = max_pending
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.log = log or (lambda text: None)
        self.jobs = {}       # job id -> Job (in flight or retained)
        self.by_key = {}     # job key -> Job
        self.pending = deque()
        self.grids = {}      # grid id -> {"jobs": {id: Job}, "watchers"}
        self._live = {}      # job id -> Job, not yet terminal
        self._terminal = OrderedDict()   # job id -> Job, LRU order
        self._finished = OrderedDict()   # finished unwatched grid ids, LRU
        self.draining = False
        self._job_ids = 0
        self._grid_ids = 0

    # -- admission ---------------------------------------------------------

    def in_flight(self):
        return len(self._live)

    def running(self):
        return sum(1 for job in self._live.values()
                   if job.state == RUNNING)

    def admit(self, cells, parent_span=None):
        """Admit one submission.

        ``cells`` is a list of ``(spec, key, cached_payload)`` triples.
        The server computes them on the loop when every key is memoised
        and already has a job here (memo and dedup hits need no probe),
        and off-loop otherwise: a first key compiles kernels, and a key
        with no job gets a disk-cache probe.
        Returns ``(grid_id, jobs)``.  Raises :class:`Backpressure` when
        the novel cells don't fit.
        ``parent_span`` (the server's submit span) parents the per-job
        trace spans when tracing is on.
        """
        novel = [key for _, key, _ in cells
                 if key not in self.by_key]
        in_flight = self.in_flight()
        if in_flight + len(novel) > self.max_pending:
            self.metrics.submissions_rejected += 1
            raise Backpressure(in_flight, len(novel), self.max_pending)
        self.metrics.submissions += 1
        self._grid_ids += 1
        grid_id = "g%04d" % self._grid_ids
        grid = {"jobs": {}, "watchers": set()}
        self.grids[grid_id] = grid
        jobs = []
        for spec, key, cached_payload in cells:
            job = self.by_key.get(key)
            if job is not None:
                if job.terminal:
                    self.metrics.memo_hits += 1
                    self._terminal.move_to_end(job.id)
                    hit = "memo"
                else:
                    self.metrics.dedup_hits += 1
                    job.grids.add(grid_id)
                    hit = "dedup"
                if self.tracer is not None and parent_span is not None:
                    # Instant marker: this submission coalesced onto an
                    # existing job whose trace lives elsewhere.
                    span = self.tracer.start_span(
                        "serve.%s" % hit, parent=parent_span,
                        attrs={"job": job.id, "state": job.state})
                    self.tracer.record(span)
            else:
                self._job_ids += 1
                job = Job("j%06d" % self._job_ids, key, spec)
                self.jobs[job.id] = job
                self.by_key[key] = job
                self.metrics.jobs_accepted += 1
                if self.tracer is not None:
                    job.span = self.tracer.start_span(
                        "serve.job", parent=parent_span,
                        attrs={"job": job.id, "label": spec.label()})
                if cached_payload is not None:
                    job.state = CACHED
                    job.payload = cached_payload
                    job.finished_at = time.monotonic()
                    job.done_event.set()
                    self._terminal[job.id] = job
                    self.metrics.cache_hits += 1
                    if job.span is not None:
                        job.span.set_attr("state", CACHED)
                        self.tracer.record(job.span)
                else:
                    if self.tracer is not None:
                        job.queue_span = self.tracer.start_span(
                            "serve.queue", parent=job.span)
                    self._live[job.id] = job
                    job.grids.add(grid_id)
                    self.pending.append(job)
            grid["jobs"].setdefault(job.id, job)
            jobs.append(job)
        self.metrics.note_pending(len(self.pending))
        for job in jobs:
            # Announce current state into the new grid (queued for fresh
            # jobs; cached/done/… replay for deduped ones).
            self._emit(job, job.state, grids=(grid_id,))
        self._check_grid_done(grid_id)
        self._evict()
        self.dispatch()
        return grid_id, jobs

    # -- dispatch ----------------------------------------------------------

    def dispatch(self):
        """Hand pending jobs to idle workers (call after any state change)."""
        while self.pending:
            idle = self.pool.idle_workers()
            if not idle:
                return
            job = self.pending.popleft()
            if job.terminal:
                continue
            worker = idle[0]
            job.assigned_at = time.monotonic()
            trace_ctx = None
            if job.queue_span is not None:
                job.queue_span.set_attr("worker", worker.worker_id)
                self.tracer.record(job.queue_span)
                job.queue_span = None
            if job.span is not None:
                # Propagated through the task queue into the worker
                # process, where it parents the "worker.execute" span.
                trace_ctx = Tracer.inject(job.span)
            self.pool.assign(worker, job.id, job.spec.as_dict(), trace_ctx)

    # -- pool message handlers --------------------------------------------

    def on_started(self, worker_id, job_id):
        job = self._live.get(job_id)
        if job is None:
            return
        job.state = RUNNING
        self._emit(job, "started", worker=worker_id,
                   attempt=job.attempts + 1)

    def on_done(self, worker_id, job_id, payload):
        job = self._live.get(job_id)
        worker = self.pool.by_id(worker_id)
        if worker is not None and worker.job_id == job_id:
            self.pool.release(worker)
        if job is None:
            self.dispatch()
            return  # late duplicate after a racy retry: drop
        if isinstance(payload, dict):
            # Worker-side spans ride the payload; they are trace
            # plumbing, not part of the job's result.
            worker_spans = payload.pop("trace_spans", None)
            if self.tracer is not None:
                self.tracer.ingest(worker_spans)
        now = time.monotonic()
        job.state = DONE
        job.payload = payload
        job.finished_at = now
        job.done_event.set()
        self._finish_span(job, DONE)
        self.metrics.executed += 1
        if job.assigned_at is not None:
            exec_seconds = now - job.assigned_at
            self.metrics.note_busy(exec_seconds)
            self.metrics.note_latency(now - job.submitted_at, exec_seconds)
        self._emit(job, "done", payload=payload)
        self._finish(job)

    def on_error(self, worker_id, job_id, message):
        job = self._live.get(job_id)
        worker = self.pool.by_id(worker_id)
        if worker is not None and worker.job_id == job_id:
            self.pool.release(worker)
        if job is None:
            self.dispatch()
            return
        self._fail(job, "execution failed: %s" % message)

    def on_casualty(self, job_id, kill_reason):
        """A worker died while owning ``job_id`` (reaped by the server)."""
        job = self._live.get(job_id)
        if job is None:
            self.dispatch()
            return
        if kill_reason == "timeout":
            self.metrics.timeouts += 1
            self._fail(job, "timed out after %.1fs (worker killed)"
                       % self.job_timeout)
            return
        job.attempts += 1
        if job.attempts > self.max_retries:
            self._fail(job, "worker crashed %d time(s); giving up"
                       % job.attempts)
            return
        self.metrics.retries += 1
        job.state = QUEUED
        job.assigned_at = None
        if self.tracer is not None:
            if job.span is not None:
                job.span.set_attr("retries", job.attempts)
            job.queue_span = self.tracer.start_span(
                "serve.queue", parent=job.span,
                attrs={"retry": job.attempts})
        self.pending.appendleft(job)
        self._emit(job, "retry", attempt=job.attempts + 1,
                   of=self.max_retries + 1)
        self.dispatch()

    def check_timeouts(self):
        """Kill workers whose job exceeded ``job_timeout`` (server tick)."""
        if self.job_timeout is None:
            return
        now = time.monotonic()
        for worker in self.pool.workers:
            if worker.job_id is None or worker.kill_reason is not None:
                continue
            job = self._live.get(worker.job_id)
            if job is None or job.assigned_at is None:
                continue
            if now - job.assigned_at > self.job_timeout:
                self.log("job %s exceeded %.1fs timeout; killing worker %d"
                         % (job.id, self.job_timeout, worker.worker_id))
                self.pool.kill(worker, "timeout")

    def _fail(self, job, message):
        job.state = FAILED
        job.error = message
        job.finished_at = time.monotonic()
        job.done_event.set()
        self._finish_span(job, FAILED, status="error", error=message)
        self.metrics.failed += 1
        self._emit(job, "failed", error=message)
        self._finish(job)

    def _finish_span(self, job, state, status=None, error=None):
        """Close a job's open trace spans at its terminal transition."""
        if self.tracer is None:
            return
        if job.queue_span is not None:
            self.tracer.record(job.queue_span, status=status)
            job.queue_span = None
        if job.span is not None:
            job.span.set_attr("state", state)
            if error is not None:
                job.span.set_attr("error", error)
            self.tracer.record(job.span, status=status)
            job.span = None

    def _finish(self, job):
        """Book-keeping after ``job`` turned terminal (it has emitted)."""
        del self._live[job.id]
        self._terminal[job.id] = job
        for grid_id in job.grids:
            self._emit_grid_progress(grid_id)
            self._check_grid_done(grid_id)
        job.grids.clear()  # terminal: it never emits again
        self._evict()
        self.dispatch()

    def _evict(self):
        """Trim the terminal-job and finished-grid LRUs to their caps."""
        while len(self._terminal) > MAX_TERMINAL_JOBS:
            _, job = self._terminal.popitem(last=False)
            del self.jobs[job.id]
            del self.by_key[job.key]
            self.metrics.jobs_evicted += 1
        while len(self._finished) > MAX_FINISHED_GRIDS:
            grid_id, _ = self._finished.popitem(last=False)
            del self.grids[grid_id]

    # -- event fan-out -----------------------------------------------------

    def watch(self, grid_id, queue):
        """Subscribe ``queue`` to a grid; replays current job states."""
        grid = self.grids.get(grid_id)
        if grid is None:
            return None
        grid["watchers"].add(queue)
        self._finished.pop(grid_id, None)  # watched grids are pinned
        return [protocol.event(job.state, **self._job_fields(job))
                for job in grid["jobs"].values()]

    def unwatch(self, grid_id, queue):
        grid = self.grids.get(grid_id)
        if grid is None:
            return
        grid["watchers"].discard(queue)
        if not grid["watchers"] and self.grid_done(grid_id):
            self._finished[grid_id] = None
            self._evict()

    def grid_done(self, grid_id):
        grid = self.grids.get(grid_id)
        if grid is None:
            return False
        return all(job.terminal for job in grid["jobs"].values())

    def grid_done_event(self, grid_id):
        """The ``grid_done`` event of a finished grid."""
        jobs = self.grids[grid_id]["jobs"].values()
        failed = sum(1 for job in jobs if job.state == FAILED)
        return protocol.event("grid_done", grid=grid_id, jobs=len(jobs),
                              failed=failed)

    def _job_fields(self, job, **extra):
        fields = {"id": job.id, "key": job.key, "label": job.spec.label(),
                  "state": job.state}
        if job.state in (DONE, CACHED) and job.payload is not None:
            fields["payload"] = job.payload
        if job.error:
            fields["error"] = job.error
        fields.update(extra)
        return fields

    def _emit(self, job, name, grids=None, **extra):
        message = protocol.event(name, **self._job_fields(job, **extra))
        for grid_id in (grids if grids is not None else job.grids):
            self._push(grid_id, message)

    def _emit_grid_progress(self, grid_id):
        grid = self.grids.get(grid_id)
        if grid is None:
            return
        done = sum(1 for job in grid["jobs"].values() if job.terminal)
        self._push(grid_id, protocol.event(
            "progress", grid=grid_id, done=done, total=len(grid["jobs"])))

    def _check_grid_done(self, grid_id):
        if self.grid_done(grid_id):
            self._push(grid_id, self.grid_done_event(grid_id))
            if not self.grids[grid_id]["watchers"]:
                self._finished[grid_id] = None

    def _push(self, grid_id, message):
        grid = self.grids.get(grid_id)
        if grid is None:
            return
        for queue in list(grid["watchers"]):
            self.metrics.events_streamed += 1
            queue.put_nowait(message)

    # -- drain -------------------------------------------------------------

    def all_idle(self):
        return not self.pending and not self._live

    def job_table(self, payloads=False):
        return [self.jobs[job_id].summary(payload=payloads)
                for job_id in sorted(self.jobs)]
