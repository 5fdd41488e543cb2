"""Sharded multi-process worker pool.

Each worker is a long-lived ``multiprocessing`` process (``spawn`` start
method: the server runs threads, and forking a threaded process can
inherit locks mid-acquire) fed through a private depth-one task queue —
private queues make job ownership unambiguous, which is what the crash
detector needs: when a worker dies, exactly the job assigned to it is
the one to retry.  All workers share one result queue back to the
server.

The pool itself is policy-free and asyncio-free: the scheduler decides
*what* to assign, *when* to kill (timeouts), and what a crash means
(retry vs fail); the pool only spawns, assigns, reaps, and respawns.

Worker-side messages on the result queue::

    ("started", worker_id, job_id)
    ("done",    worker_id, job_id, payload)
    ("error",   worker_id, job_id, "ExcType: message")

A worker that dies without reporting (SIGKILL, segfault, machine OOM)
is noticed by :meth:`WorkerPool.reap` via process liveness.
"""

import itertools
import multiprocessing
import os
import time

from repro.serve.jobs import execute_spec

#: How long to wait for a worker to exit voluntarily at shutdown.
_JOIN_SECONDS = 2.0


def _worker_main(worker_id, task_queue, result_queue, env):
    """Worker process entry point (top-level: spawn-picklable).

    ``env`` carries the cache/manifest redirects the server was started
    with, so spawned workers (which do not inherit a fork'd
    environment's later mutations) hit the same disk cache.

    Each job executes under a ``worker.execute`` telemetry span whose
    parent is the scheduler-side job span (context propagated through
    the task queue), so one submission yields a single connected
    client → scheduler → worker trace.  The worker's tracer is
    installed process-globally, which is how the runner's own
    ``runner.run``/``simulate`` spans nest underneath.
    Finished spans ride back in the payload under ``trace_spans``; the
    scheduler strips and ingests them.
    """
    os.environ.update(env)
    from repro.obs import telemetry
    tracer = telemetry.Tracer(process="worker-%d" % worker_id)
    telemetry.install(tracer)
    while True:
        item = task_queue.get()
        if item is None:
            break
        job_id, spec_dict, trace_ctx = (item if len(item) == 3
                                        else (item[0], item[1], None))
        result_queue.put(("started", worker_id, job_id))
        try:
            with tracer.span("worker.execute",
                             parent=telemetry.Tracer.extract(trace_ctx),
                             attrs={"job": job_id}):
                payload = execute_spec(spec_dict)
        except BaseException as exc:  # report, keep the worker alive
            tracer.drain()  # error replies carry no payload for spans
            result_queue.put(("error", worker_id, job_id,
                              "%s: %s" % (type(exc).__name__, exc)))
        else:
            if isinstance(payload, dict):
                payload["trace_spans"] = tracer.drain()
            else:
                tracer.drain()
            result_queue.put(("done", worker_id, job_id, payload))


class WorkerHandle:
    """One worker process plus its assignment bookkeeping."""

    def __init__(self, worker_id, process, task_queue):
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.job_id = None          # currently-assigned job, if any
        self.assigned_at = None     # monotonic time of assignment
        self.jobs_done = 0
        self.kill_reason = None     # set when the scheduler killed it

    @property
    def pid(self):
        return self.process.pid

    def alive(self):
        return self.process.is_alive()

    def busy_seconds(self):
        if self.assigned_at is None:
            return 0.0
        return time.monotonic() - self.assigned_at

    def as_dict(self):
        return {
            "worker_id": self.worker_id,
            "pid": self.pid,
            "alive": self.alive(),
            "job": self.job_id,
            "busy_seconds": round(self.busy_seconds(), 3),
            "jobs_done": self.jobs_done,
        }


class WorkerPool:
    """Fixed-width pool of simulation workers."""

    def __init__(self, num_workers, env=None):
        self.num_workers = max(1, num_workers)
        self._ctx = multiprocessing.get_context("spawn")
        self._env = dict(env or {})
        self._ids = itertools.count()
        self.result_queue = self._ctx.Queue()
        self.workers = [self._spawn() for _ in range(self.num_workers)]

    def _spawn(self):
        worker_id = next(self._ids)
        task_queue = self._ctx.Queue()
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_queue, self.result_queue, self._env),
            daemon=True, name="repro-serve-worker-%d" % worker_id)
        process.start()
        return WorkerHandle(worker_id, process, task_queue)

    def by_id(self, worker_id):
        for worker in self.workers:
            if worker.worker_id == worker_id:
                return worker
        return None

    def idle_workers(self):
        return [worker for worker in self.workers
                if worker.job_id is None and worker.alive()]

    def assign(self, worker, job_id, spec_dict, trace_ctx=None):
        worker.job_id = job_id
        worker.assigned_at = time.monotonic()
        worker.kill_reason = None
        worker.task_queue.put((job_id, spec_dict, trace_ctx))

    def release(self, worker):
        """Mark the worker idle again (its job reached a terminal state)."""
        worker.job_id = None
        worker.assigned_at = None
        worker.jobs_done += 1

    def kill(self, worker, reason):
        """Terminate a worker (timeout enforcement); reap() collects it."""
        worker.kill_reason = reason
        if worker.alive():
            worker.process.terminate()

    def reap(self, respawn=True):
        """Collect dead workers; returns [(job_id, kill_reason), ...].

        Each dead worker is replaced by a fresh process (unless the pool
        is shutting down), so pool width is self-healing; its assigned
        job — if any — is handed back for the scheduler to retry or
        fail.
        """
        casualties = []
        for index, worker in enumerate(self.workers):
            if worker.alive():
                continue
            if worker.job_id is not None:
                casualties.append((worker.job_id, worker.kill_reason))
            worker.process.join(timeout=0)
            if respawn:
                self.workers[index] = self._spawn()
        if not respawn:
            self.workers = [worker for worker in self.workers
                            if worker.alive()]
        return casualties

    def utilization_now(self):
        busy = sum(1 for worker in self.workers if worker.job_id is not None)
        return busy / max(1, len(self.workers))

    def shutdown(self):
        """Stop all workers: sentinel, short join, then terminate."""
        for worker in self.workers:
            try:
                worker.task_queue.put(None)
            except (OSError, ValueError):
                pass
        deadline = time.monotonic() + _JOIN_SECONDS
        for worker in self.workers:
            worker.process.join(timeout=max(0.0,
                                            deadline - time.monotonic()))
            if worker.alive():
                worker.process.terminate()
                worker.process.join(timeout=1.0)
        # Unblock any thread parked on result_queue.get().
        try:
            self.result_queue.put(("pool-shutdown", -1, None))
        except (OSError, ValueError):
            pass
