"""The asyncio TCP server: protocol ↔ scheduler ↔ worker pool.

Threading model: all scheduler/job state is touched only from the
asyncio event loop.  Two things run off-loop and bridge back in:

- a reader thread drains the pool's (blocking) result queue and posts
  each message onto the loop with ``call_soon_threadsafe``;
- kernel compiles and disk-cache probes run in the default thread
  executor, which is also why ``repro.eval.runner``'s memos and
  counters are lock-protected.  A submission goes there only when one
  of its cells needs one: a key this process has not computed yet (its
  first key for a benchmark compiles the kernels), or a key with no job
  in the table (a probe reads a pickle).  Memo and dedup hits, and
  sleep cells, are admitted on the loop, and their answer leaves in one
  socket write.

A periodic monitor tick reaps crashed workers, enforces per-job
timeouts, and redispatches.  ``drain`` flips the server into
reject-new-work mode, waits for every in-flight job to reach a terminal
state, writes the service manifest through ``repro.obs``, answers the
draining client, and stops the loop — no result is ever dropped by a
shutdown.
"""

import asyncio
import os
import threading
import time

from repro.obs.telemetry import MetricsRegistry, Tracer
from repro.serve import protocol
from repro.serve.jobs import (
    GridError,
    compute_key,
    expand_grid,
    memoised_key,
    probe_cache,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.pool import WorkerPool
from repro.serve.scheduler import Backpressure, Scheduler

#: Monitor cadence: crash reap + timeout enforcement + dispatch.
TICK_SECONDS = 0.1


def default_workers():
    return max(1, (os.cpu_count() or 2) - 1)


class ServeServer:
    def __init__(self, host="127.0.0.1", port=protocol.DEFAULT_PORT,
                 workers=None, max_pending=256, job_timeout=300.0,
                 max_retries=1, verbose=False, metrics_interval=30.0):
        self.host = host
        self.port = port
        self.num_workers = workers or default_workers()
        self.max_pending = max_pending
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.verbose = verbose
        self.registry = MetricsRegistry()
        self.metrics = ServeMetrics(registry=self.registry)
        self.tracer = Tracer(process="scheduler")
        self.metrics_interval = metrics_interval
        self._next_metrics_write = None
        self.pool = None
        self.scheduler = None
        self._server = None
        self._loop = None
        self._stop = None           # asyncio.Event: drain finished
        self._drained = None        # manifest path written at drain
        self._pump_thread = None
        self._monitor_task = None
        self._closing = False

    def log(self, text):
        if self.verbose:
            print("[serve] %s" % text, flush=True)

    # -- lifecycle ---------------------------------------------------------

    async def start(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.pool = WorkerPool(self.num_workers)
        self.scheduler = Scheduler(self.pool, self.metrics,
                                   max_pending=self.max_pending,
                                   job_timeout=self.job_timeout,
                                   max_retries=self.max_retries,
                                   log=self.log, tracer=self.tracer)
        self.registry.gauge(
            "serve_queue_depth", help="jobs waiting for a worker",
            fn=lambda: len(self.scheduler.pending))
        self.registry.gauge(
            "serve_running_jobs", help="jobs currently on a worker",
            fn=lambda: self.scheduler.running())
        self.registry.gauge(
            "serve_workers", help="current pool width",
            fn=lambda: len(self.pool.workers))
        self.registry.gauge(
            "serve_worker_utilization",
            help="busy fraction of the pool right now",
            fn=lambda: round(self.pool.utilization_now(), 4))
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port,
            limit=protocol.MAX_LINE_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_thread = threading.Thread(
            target=self._pump_results, name="repro-serve-pump", daemon=True)
        self._pump_thread.start()
        self._monitor_task = asyncio.ensure_future(self._monitor())
        print("repro serve listening on %s:%d (%d worker%s, "
              "max_pending=%d, job_timeout=%.0fs)"
              % (self.host, self.port, self.num_workers,
                 "" if self.num_workers == 1 else "s",
                 self.max_pending, self.job_timeout), flush=True)

    async def run_until_drained(self):
        await self._stop.wait()
        # Give drain replies (written by handlers woken by the same
        # event) a beat to flush before tearing the server down.
        await asyncio.sleep(0.3)
        await self.aclose()

    async def aclose(self):
        self._closing = True
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None:
            await self._loop.run_in_executor(None, self.pool.shutdown)
        if self._pump_thread is not None:
            self._pump_thread.join(timeout=2.0)

    def request_drain(self):
        """Start refusing submissions; monitor completes the drain."""
        self.scheduler.draining = True
        self.log("drain requested (%d in flight)"
                 % self.scheduler.in_flight())

    # -- pool plumbing -----------------------------------------------------

    def _pump_results(self):
        """Reader thread: blocking queue → event loop."""
        while True:
            try:
                message = self.pool.result_queue.get()
            except (EOFError, OSError):
                return
            if message[0] == "pool-shutdown" or self._closing:
                return
            try:
                self._loop.call_soon_threadsafe(self._on_pool_message,
                                                message)
            except RuntimeError:
                return  # loop already closed mid-shutdown

    def _on_pool_message(self, message):
        kind = message[0]
        if kind == "started":
            self.scheduler.on_started(message[1], message[2])
        elif kind == "done":
            self.scheduler.on_done(message[1], message[2], message[3])
        elif kind == "error":
            self.scheduler.on_error(message[1], message[2], message[3])

    async def _monitor(self):
        while True:
            await asyncio.sleep(TICK_SECONDS)
            self.scheduler.check_timeouts()
            respawn = not (self.scheduler.draining
                           and self.scheduler.all_idle())
            for job_id, kill_reason in self.pool.reap(respawn=respawn):
                self.scheduler.on_casualty(job_id, kill_reason)
            self.scheduler.dispatch()
            self.metrics.note_pending(len(self.scheduler.pending))
            self._maybe_write_metrics()
            if self.scheduler.draining and self.scheduler.all_idle() \
                    and not self._stop.is_set():
                self._drained = self._write_manifest()
                self.log("drained; manifest at %s" % self._drained)
                self._stop.set()

    def _telemetry_path(self, filename):
        from repro.obs.manifest import manifest_dir
        return os.path.join(manifest_dir(), filename)

    def _maybe_write_metrics(self):
        """Append a registry snapshot to the NDJSON time series.

        A session leaves a ``serve_metrics.ndjson`` trail next to its
        manifest — one line every ``metrics_interval`` seconds — so
        queue depth and latency percentiles can be plotted over the
        session afterwards.  ``metrics_interval <= 0`` disables it.
        """
        if self.metrics_interval is None or self.metrics_interval <= 0:
            return
        now = time.monotonic()
        if self._next_metrics_write is not None \
                and now < self._next_metrics_write:
            return
        self._next_metrics_write = now + self.metrics_interval
        self.registry.write_snapshot(
            self._telemetry_path("serve_metrics.ndjson"))

    def _export_telemetry(self):
        """Drain-time sidecars: final metrics line, spans, Perfetto."""
        paths = {}
        metrics_path = self._telemetry_path("serve_metrics.ndjson")
        if self.registry.write_snapshot(metrics_path):
            paths["metrics_ndjson"] = metrics_path
        spans = self.tracer.to_dicts()
        if spans:
            trace_path = self._telemetry_path("serve_trace.ndjson")
            if self.tracer.to_ndjson(trace_path):
                paths["trace_ndjson"] = trace_path
            from repro.obs.perfetto import write_service_trace
            perfetto_path = self._telemetry_path("serve_trace.perfetto.json")
            if write_service_trace(spans, perfetto_path):
                paths["perfetto_trace"] = perfetto_path
        return paths

    def _write_manifest(self):
        """Service provenance on drain, via the obs manifest path.

        Best-effort (a read-only results dir must not fail the drain)
        but never silent: failures log one line and bump the
        ``serve_manifest_write_failures_total`` counter surfaced by the
        ``stats``/``metrics`` requests, ``repro top`` and the
        Prometheus exposition.
        """
        try:
            from repro.obs.manifest import write_service_manifest
            # write_service_manifest swallows filesystem errors and
            # returns None — count that path too, not just exceptions.
            path = write_service_manifest(
                self._stats_snapshot(),
                jobs=self.scheduler.job_table(payloads=False),
                telemetry=self._export_telemetry())
            reason = "results dir not writable" if path is None else None
        except Exception as exc:
            path = None
            reason = "%s: %s" % (type(exc).__name__, exc)
        if reason is not None:
            self.metrics.manifest_write_failures += 1
            self.log("warning: service manifest write failed (%s) — "
                     "drain provenance was not recorded" % reason)
        return path

    def _stats_snapshot(self):
        snapshot = self.metrics.snapshot(
            num_workers=len(self.pool.workers),
            pending=len(self.scheduler.pending),
            running=self.scheduler.running())
        snapshot["jobs_retained"] = len(self.scheduler.jobs)
        snapshot["grids_retained"] = len(self.scheduler.grids)
        snapshot["draining"] = self.scheduler.draining
        snapshot["host"] = self.host
        snapshot["port"] = self.port
        return snapshot

    # -- request handling --------------------------------------------------

    async def _handle_client(self, reader, writer):
        peer = writer.get_extra_info("peername")
        self.log("client connected: %s" % (peer,))
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._send(writer, protocol.error(
                        None, protocol.E_BAD_REQUEST, "frame too long"))
                    break
                if not line:
                    break
                try:
                    request = protocol.decode(line)
                except protocol.ProtocolError as exc:
                    await self._send(writer, protocol.error(
                        None, protocol.E_BAD_REQUEST, str(exc)))
                    continue
                done = await self._dispatch_op(request, writer)
                if done:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
            self.log("client gone: %s" % (peer,))

    async def _send(self, writer, message):
        writer.write(protocol.encode(message))
        await writer.drain()

    async def _dispatch_op(self, request, writer):
        """Handle one request; returns True when the connection is done."""
        op = request.get("op")
        if op == "ping":
            await self._send(writer, protocol.reply(
                request, pong=True, version=protocol.PROTOCOL_VERSION))
        elif op == "submit":
            await self._op_submit(request, writer)
        elif op == "subscribe":
            grid_id = request.get("grid")
            streamed = await self._stream_grid(
                grid_id, writer, protocol.reply(request, grid=grid_id))
            if not streamed:
                await self._send(writer, protocol.error(
                    request, protocol.E_UNKNOWN_GRID,
                    "unknown grid %r" % grid_id))
        elif op == "jobs":
            await self._send(writer, protocol.reply(
                request, jobs=self.scheduler.job_table(
                    payloads=bool(request.get("payloads")))))
        elif op == "result":
            await self._op_result(request, writer)
        elif op == "stats":
            await self._send(writer, protocol.reply(
                request, stats=self._stats_snapshot(),
                workers=[worker.as_dict()
                         for worker in self.pool.workers]))
        elif op == "metrics":
            await self._send(writer, protocol.reply(
                request, exposition=self.registry.exposition(),
                metrics=self.registry.snapshot()))
        elif op == "drain":
            self.request_drain()
            await self._stop.wait()
            await self._send(writer, protocol.reply(
                request, drained=True, manifest=self._drained,
                stats=self._stats_snapshot()))
            return True
        else:
            await self._send(writer, protocol.error(
                request, protocol.E_BAD_REQUEST,
                "unknown op %r" % op))
        return False

    def _submit_span(self, request):
        """The root ``serve.submit`` span for one submission.

        When the client sent a ``trace`` context the span adopts the
        client's ids and submit timestamp (``process="client"``), so the
        whole trace starts on the client's clock; otherwise the server
        roots a fresh trace itself.
        """
        context = request.get("trace")
        ctx = Tracer.extract(context)
        if ctx is not None:
            start = context.get("start_unix")
            if not isinstance(start, (int, float)):
                start = None
            span = self.tracer.start_span(
                "serve.submit", trace_id=ctx["trace_id"],
                start=start, process="client")
            span.span_id = ctx["span_id"]
            return span
        return self.tracer.start_span("serve.submit")

    async def _op_submit(self, request, writer):
        if self.scheduler.draining:
            await self._send(writer, protocol.error(
                request, protocol.E_DRAINING,
                "server is draining; not accepting work"))
            return
        try:
            specs = expand_grid(request)
        except GridError as exc:
            self.metrics.submissions_rejected += 1
            await self._send(writer, protocol.error(
                request, protocol.E_BAD_REQUEST, str(exc)))
            return
        submit_span = self._submit_span(request)
        cells = self._hit_cells(specs)
        if cells is None:
            cells = await asyncio.get_running_loop().run_in_executor(
                None, self._prepare_cells, specs)
        try:
            grid_id, jobs = self.scheduler.admit(cells,
                                                 parent_span=submit_span)
        except Backpressure as exc:
            self.tracer.record(submit_span, status="error")
            await self._send(writer, protocol.error(
                request, protocol.E_BACKPRESSURE, str(exc)))
            return
        submit_span.set_attr("grid", grid_id)
        submit_span.set_attr("jobs", len(jobs))
        self.tracer.record(submit_span)
        reply = protocol.reply(request, grid=grid_id,
                               jobs=[job.summary() for job in jobs])
        if request.get("stream"):
            # No await since admission, so the grid is still retained.
            await self._stream_grid(grid_id, writer, reply)
        else:
            await self._send(writer, reply)

    def _hit_cells(self, specs):
        """Loop-side cells for a submission that needs no compile and no
        disk read, else None: every eval cell's key is memoised and
        already has a job, and sleep cells are never probed."""
        cells = []
        by_key = self.scheduler.by_key
        for spec in specs:
            key = memoised_key(spec)
            if key is None or (key not in by_key and spec.kind != "sleep"):
                return None
            cells.append((spec, key, None))
        return cells

    def _prepare_cells(self, specs):
        """Thread-side: content keys + disk-cache probes for a grid.

        Skips the disk probe when the key already has an in-flight or
        retained job — the scheduler will reuse it anyway.
        """
        cells = []
        for spec in specs:
            key = compute_key(spec)
            cached = None
            if key not in self.scheduler.by_key:
                cached = probe_cache(spec)
            cells.append((spec, key, cached))
        return cells

    async def _stream_grid(self, grid_id, writer, first):
        """Watch a grid: send ``first``, the grid's replay, then its
        events through ``grid_done``.  False if the grid is unknown.

        ``first``, the replay and, for a finished grid, ``grid_done``
        leave in one write.  The watch pins the grid against eviction
        until it is released on the way out.
        """
        queue = asyncio.Queue()
        replay = self.scheduler.watch(grid_id, queue)
        if replay is None:
            return False
        try:
            frames = [first, *replay]
            done = self.scheduler.grid_done(grid_id)
            if done:
                frames.append(self.scheduler.grid_done_event(grid_id))
            writer.write(b"".join(map(protocol.encode, frames)))
            await writer.drain()
            if done:
                return True
            while True:
                message = await queue.get()
                await self._send(writer, message)
                if message.get("event") == "grid_done":
                    return True
        finally:
            self.scheduler.unwatch(grid_id, queue)

    async def _op_result(self, request, writer):
        job_id = request.get("id")
        job = self.scheduler.jobs.get(job_id)
        if job is None:
            # Allow lookup by content key, the other natural handle.
            job = self.scheduler.by_key.get(job_id)
        if job is None:
            await self._send(writer, protocol.error(
                request, protocol.E_UNKNOWN_JOB,
                "unknown job %r" % job_id))
            return
        if not job.terminal and request.get("wait", True):
            timeout = request.get("timeout")
            try:
                await asyncio.wait_for(job.done_event.wait(), timeout)
            except asyncio.TimeoutError:
                pass
        await self._send(writer, protocol.reply(
            request, job=job.summary(payload=True)))


async def _amain(server):
    await server.start()

    loop = asyncio.get_running_loop()
    for signame in ("SIGINT", "SIGTERM"):
        import signal
        try:
            loop.add_signal_handler(getattr(signal, signame),
                                    server.request_drain)
        except (NotImplementedError, OSError):
            pass
    await server.run_until_drained()


def serve_main(host, port, workers=None, max_pending=256, job_timeout=300.0,
               max_retries=1, verbose=False, metrics_interval=30.0):
    """Blocking entry point for ``python -m repro serve``."""
    server = ServeServer(host=host, port=port, workers=workers,
                         max_pending=max_pending, job_timeout=job_timeout,
                         max_retries=max_retries, verbose=verbose,
                         metrics_interval=metrics_interval)
    try:
        asyncio.run(_amain(server))
    except KeyboardInterrupt:
        pass
    print("repro serve: drained and stopped "
          "(%d executed, %d cache hit(s), %d dedup hit(s))"
          % (server.metrics.executed, server.metrics.cache_hits,
             server.metrics.dedup_hits + server.metrics.memo_hits),
          flush=True)
    return 0
