"""Server-side metrics: counters, gauges, and job-latency histograms.

Everything is updated from the single asyncio event loop, so no locking
is needed; the pool's worker busy-time is fed in by the scheduler as
jobs start and finish.  ``snapshot()`` is what the ``stats`` request
returns and what the drain-time service manifest records.

Latency percentiles come from fixed-bucket streaming histograms
(:class:`repro.obs.telemetry.Histogram`), which replaced a drop-oldest
4096-sample reservoir: under a long session the reservoir forgot every
latency older than the last 4096 jobs, skewing p95/p99 toward whatever
the recent traffic looked like.  The histograms observe *every* job
ever completed in O(buckets) memory and report exact percentile bounds.

The plain integer counters remain the mutation API (the scheduler does
``metrics.executed += 1``) and double as the compatibility view; each
is also registered in the session's :class:`MetricsRegistry` as a
callback-backed instrument, so the ``metrics`` protocol request can
render the whole session as Prometheus text exposition without double
accounting.
"""

import time

from repro.obs.telemetry import MetricsRegistry


def percentile(samples, fraction):
    """Nearest-rank percentile of ``samples`` (0 for an empty list).

    Retained for ad-hoc analysis of explicit sample lists; the live
    session percentiles now come from streaming histograms.
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1,
               max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[rank]


class ServeMetrics:
    """One server session's counters."""

    #: Integer counters mutated directly by the scheduler/server and
    #: mirrored into the registry as ``serve_<name>_total``.
    COUNTER_FIELDS = (
        ("submissions", "submit requests accepted"),
        ("submissions_rejected", "backpressure / draining / bad"),
        ("jobs_accepted", "unique jobs entering the table"),
        ("dedup_hits", "submissions coalesced onto in-flight jobs"),
        ("memo_hits", "served from the server's job table"),
        ("jobs_evicted", "terminal jobs dropped from the job table (LRU)"),
        ("cache_hits", "served from the runner disk cache"),
        ("executed", "jobs that ran on a worker"),
        ("failed", "jobs that reached the failed state"),
        ("retries", "crash-requeues"),
        ("timeouts", "jobs killed for exceeding the timeout"),
        ("events_streamed", "lifecycle events pushed to watchers"),
        ("manifest_write_failures", "service manifests that failed to "
                                    "write (lost provenance)"),
    )

    def __init__(self, clock=time.monotonic, registry=None):
        self._clock = clock
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.started_at = clock()
        for name, help_text in self.COUNTER_FIELDS:
            setattr(self, name, 0)
            self.registry.counter(
                "serve_%s_total" % name, help=help_text,
                fn=(lambda field=name: getattr(self, field)))
        self.peak_pending = 0
        self._busy_seconds = 0.0    # summed worker-occupied time
        self.registry.gauge("serve_peak_pending",
                            help="high-water mark of the admission queue",
                            fn=lambda: self.peak_pending)
        self.registry.counter("serve_busy_seconds_total",
                              help="summed worker-occupied seconds",
                              fn=lambda: round(self._busy_seconds, 6))
        self.registry.gauge("serve_uptime_seconds",
                            help="session age in seconds",
                            fn=lambda: round(self._clock()
                                             - self.started_at, 3))
        self.latency = self.registry.histogram(
            "serve_job_latency_seconds",
            help="submit to terminal state, seconds")
        self.exec_latency = self.registry.histogram(
            "serve_job_exec_seconds",
            help="worker assignment to terminal state, seconds")

    # -- feeders ----------------------------------------------------------

    def note_pending(self, depth):
        self.peak_pending = max(self.peak_pending, depth)

    def note_busy(self, seconds):
        self._busy_seconds += seconds

    def note_latency(self, queue_to_done, exec_seconds):
        self.latency.observe(queue_to_done)
        self.exec_latency.observe(exec_seconds)

    # -- reporting --------------------------------------------------------

    def utilization(self, num_workers):
        """Worker-occupied fraction of the session so far (0..1)."""
        wall = max(self._clock() - self.started_at, 1e-9)
        return min(1.0, self._busy_seconds / (wall * max(num_workers, 1)))

    def snapshot(self, num_workers=0, pending=0, running=0):
        snapshot = {
            "uptime_seconds": round(self._clock() - self.started_at, 3),
            "queue_depth": pending,
            "running": running,
            "peak_pending": self.peak_pending,
            "num_workers": num_workers,
            "worker_utilization": round(self.utilization(num_workers), 4),
            "busy_seconds": round(self._busy_seconds, 3),
            "latency_p50_seconds": round(self.latency.quantile(0.50), 6),
            "latency_p95_seconds": round(self.latency.quantile(0.95), 6),
            "latency_p99_seconds": round(self.latency.quantile(0.99), 6),
            "exec_p50_seconds": round(self.exec_latency.quantile(0.50), 6),
            "exec_p95_seconds": round(self.exec_latency.quantile(0.95), 6),
            "exec_p99_seconds": round(self.exec_latency.quantile(0.99), 6),
            "completed_samples": self.latency.count,
        }
        for name, _help in self.COUNTER_FIELDS:
            snapshot[name] = getattr(self, name)
        return snapshot
