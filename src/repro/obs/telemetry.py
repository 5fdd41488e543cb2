"""Unified telemetry: metrics registry and span-based structured tracing.

Dependency-free (stdlib only) and shared by every layer that wants
service-grade observability: the simulation service (``repro.serve``),
the experiment runner (``repro.eval.runner``), and the CLI dashboard
(``repro top``).

Metrics
=======

:class:`MetricsRegistry` holds three instrument kinds:

- :class:`Counter` — monotonically increasing value (``inc``);
- :class:`Gauge` — point-in-time value (``set``/``inc``/``dec``);
- :class:`Histogram` — fixed-bucket distribution with **exact streaming
  percentile bounds**: every observation lands in a bucket whose
  observed per-bucket min/max are tracked, so ``quantile_bounds(q)``
  returns an interval that is *guaranteed* to contain the true
  nearest-rank percentile of everything ever observed — no reservoir,
  no drop-oldest bias, O(buckets) memory regardless of sample count.

Counters and gauges also accept a ``fn`` callback so existing plain-int
bookkeeping (e.g. :class:`repro.serve.metrics.ServeMetrics`) can be
exposed through the registry without double accounting.

``exposition()`` renders the Prometheus text format; ``ndjson_record()``
returns one JSON-able time-series sample (the serve node appends these
to ``serve_metrics.ndjson`` periodically).

Tracing
=======

:class:`Span` / :class:`Tracer` implement minimal structured tracing
with cross-process context propagation: ``Tracer.inject(span)`` returns
a small JSON-able dict that travels in a job payload across the
client → scheduler → worker-process boundary, and the receiving process
reconstructs the parent linkage with ``extract``/``start_span(parent=
ctx)``.  Finished spans serialise to NDJSON (:meth:`Tracer.to_ndjson`)
and to Perfetto service tracks (:func:`repro.obs.perfetto.
spans_to_trace_events`).

Span timestamps are wall-clock (``time.time()``) so spans recorded in
different processes line up on one timeline.

Naming conventions (see DESIGN.md): metric names are
``<subsystem>_<noun>[_<unit>][_total]`` (``serve_jobs_executed_total``,
``serve_job_latency_seconds``); span names are ``<layer>.<verb>``
(``serve.submit``, ``serve.queue``, ``worker.execute``, ``runner.run``,
``simulate``).

The process-global slot (:func:`install` / :func:`active_tracer`) is
how deep layers find the tracer without plumbing: it defaults to
``None`` and every instrumented call site guards with a single
``is None`` check, so telemetry that is not installed costs one
attribute load — and never touches simulated statistics either way
(pinned by ``tests/eval/test_equivalence.py``).
"""

import json
import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager

#: Default histogram bucket upper bounds (seconds): latency-shaped,
#: spanning sub-millisecond cache hits to multi-minute verified sweeps.
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)


def _format_value(value):
    """Prometheus-style number rendering (ints without a decimal point)."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return "%d" % value
    return repr(round(float(value), 9))


class Counter:
    """Monotonically increasing metric (optionally callback-backed)."""

    kind = "counter"

    def __init__(self, name, help="", fn=None):
        self.name = name
        self.help = help
        self.fn = fn
        self._value = 0

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counter %s cannot decrease" % self.name)
        self._value += amount

    @property
    def value(self):
        return self.fn() if self.fn is not None else self._value

    def snapshot(self):
        return self.value


class Gauge:
    """Point-in-time metric (optionally callback-backed)."""

    kind = "gauge"

    def __init__(self, name, help="", fn=None):
        self.name = name
        self.help = help
        self.fn = fn
        self._value = 0

    def set(self, value):
        self._value = value

    def inc(self, amount=1):
        self._value += amount

    def dec(self, amount=1):
        self._value -= amount

    @property
    def value(self):
        return self.fn() if self.fn is not None else self._value

    def snapshot(self):
        return self.value


class Histogram:
    """Fixed-bucket histogram with exact streaming percentile bounds.

    ``buckets`` are the finite upper bounds; an implicit +Inf bucket
    catches the overflow.  Per-bucket observed min/max make
    :meth:`quantile_bounds` exact: the true nearest-rank percentile of
    *all* observations lies inside the returned interval, however many
    samples have streamed through.  Compare the reservoir this replaced
    (drop-oldest beyond 4096 samples), whose tail percentiles silently
    forgot history under long sessions.
    """

    kind = "histogram"

    def __init__(self, name, help="", buckets=LATENCY_BUCKETS):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram %s needs at least one bucket"
                             % name)
        n = len(self.buckets) + 1          # + overflow bucket
        self.counts = [0] * n
        self._mins = [None] * n
        self._maxs = [None] * n
        self.count = 0
        self.sum = 0.0

    def observe(self, value):
        index = bisect_left(self.buckets, value)
        self.counts[index] += 1
        self.count += 1
        self.sum += value
        if self._mins[index] is None or value < self._mins[index]:
            self._mins[index] = value
        if self._maxs[index] is None or value > self._maxs[index]:
            self._maxs[index] = value

    def quantile_bounds(self, fraction):
        """Exact (lower, upper) bounds on the nearest-rank percentile.

        Returns ``(0.0, 0.0)`` for an empty histogram.  The bounds are
        the observed min/max of the bucket holding the rank, so the true
        percentile of the full observation stream lies within them.
        """
        if self.count == 0:
            return (0.0, 0.0)
        rank = min(self.count - 1,
                   max(0, int(round(fraction * (self.count - 1)))))
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            cumulative += bucket_count
            if rank < cumulative:
                return (self._mins[index], self._maxs[index])
        # Unreachable (count > 0 means some bucket holds the rank).
        return (self._mins[-1] or 0.0, self._maxs[-1] or 0.0)

    def quantile(self, fraction):
        """Conservative scalar percentile: the upper bound of
        :meth:`quantile_bounds` (true percentile is never larger)."""
        return self.quantile_bounds(fraction)[1]

    def snapshot(self):
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": self._observed_min(),
            "max": self._observed_max(),
            "buckets": {
                ("%g" % edge): self.counts[index]
                for index, edge in enumerate(self.buckets)
            } | {"+Inf": self.counts[-1]},
            "p50": round(self.quantile(0.50), 9),
            "p95": round(self.quantile(0.95), 9),
            "p99": round(self.quantile(0.99), 9),
        }

    def _observed_min(self):
        values = [value for value in self._mins if value is not None]
        return min(values) if values else 0.0

    def _observed_max(self):
        values = [value for value in self._maxs if value is not None]
        return max(values) if values else 0.0


class MetricsRegistry:
    """Registry of named instruments; registration is idempotent.

    ``counter``/``gauge``/``histogram`` get-or-create: asking twice for
    the same name returns the same instrument (a kind mismatch raises).
    Registration takes a lock; instrument updates themselves are
    lock-free — the serve node updates everything from one event loop,
    and worker processes own private registries.
    """

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    def _register(self, cls, name, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        "metric %r already registered as %s"
                        % (name, existing.kind))
                return existing
            metric = cls(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, help="", fn=None):
        return self._register(Counter, name, help=help, fn=fn)

    def gauge(self, name, help="", fn=None):
        return self._register(Gauge, name, help=help, fn=fn)

    def histogram(self, name, help="", buckets=LATENCY_BUCKETS):
        return self._register(Histogram, name, help=help, buckets=buckets)

    def __iter__(self):
        return iter(list(self._metrics.values()))

    def get(self, name):
        return self._metrics.get(name)

    def snapshot(self):
        """All instruments as one JSON-able dict keyed by metric name."""
        return {metric.name: metric.snapshot() for metric in self}

    def exposition(self):
        """Prometheus text exposition format (version 0.0.4)."""
        lines = []
        for metric in self:
            if metric.help:
                lines.append("# HELP %s %s" % (metric.name, metric.help))
            lines.append("# TYPE %s %s" % (metric.name, metric.kind))
            if metric.kind == "histogram":
                cumulative = 0
                for index, edge in enumerate(metric.buckets):
                    cumulative += metric.counts[index]
                    lines.append('%s_bucket{le="%g"} %d'
                                 % (metric.name, edge, cumulative))
                cumulative += metric.counts[-1]
                lines.append('%s_bucket{le="+Inf"} %d'
                             % (metric.name, cumulative))
                lines.append("%s_sum %s"
                             % (metric.name, _format_value(metric.sum)))
                lines.append("%s_count %d" % (metric.name, metric.count))
            else:
                lines.append("%s %s"
                             % (metric.name, _format_value(metric.value)))
        return "\n".join(lines) + "\n"

    def ndjson_record(self, now=None):
        """One time-series sample: ``{"ts": ..., "metrics": {...}}``."""
        return {"ts": round(time.time() if now is None else now, 6),
                "metrics": self.snapshot()}

    def write_snapshot(self, path, now=None):
        """Append one NDJSON time-series sample to ``path`` (best
        effort; a read-only checkout never breaks the caller)."""
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "a") as stream:
                stream.write(json.dumps(self.ndjson_record(now),
                                        sort_keys=True,
                                        separators=(",", ":")) + "\n")
        except OSError:
            return None
        return path


# -- tracing ---------------------------------------------------------------


def new_id():
    """A fresh 64-bit hex id for traces and spans."""
    return os.urandom(8).hex()


class Span:
    """One timed operation in a trace.

    ``trace_id`` groups every span of one logical job; ``parent_id``
    builds the tree.  ``process`` names where the span ran (``client``,
    ``scheduler``, ``worker-3``) and becomes the Perfetto track.
    """

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start",
                 "end", "attrs", "status", "process")

    def __init__(self, name, trace_id=None, span_id=None, parent_id=None,
                 start=None, process="", attrs=None):
        self.name = name
        self.trace_id = trace_id or new_id()
        self.span_id = span_id or new_id()
        self.parent_id = parent_id
        self.start = time.time() if start is None else start
        self.end = None
        self.attrs = dict(attrs or {})
        self.status = "ok"
        self.process = process

    def set_attr(self, key, value):
        self.attrs[key] = value
        return self

    def finish(self, end=None, status=None):
        if self.end is None:
            self.end = time.time() if end is None else end
        if status is not None:
            self.status = status
        return self

    @property
    def duration(self):
        return (self.end - self.start) if self.end is not None else None

    def as_dict(self):
        out = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_unix": round(self.start, 6),
            "end_unix": round(self.end, 6) if self.end is not None
            else None,
            "status": self.status,
            "process": self.process,
        }
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out

    @classmethod
    def from_dict(cls, data):
        span = cls(data.get("name", "?"),
                   trace_id=data.get("trace_id"),
                   span_id=data.get("span_id"),
                   parent_id=data.get("parent_id"),
                   start=data.get("start_unix", 0.0),
                   process=data.get("process", ""),
                   attrs=data.get("attrs"))
        span.end = data.get("end_unix")
        span.status = data.get("status", "ok")
        return span


class Tracer:
    """Collects finished spans for one process.

    Bounded: beyond ``limit`` finished spans new ones are counted as
    dropped instead of retained, so a million-job serve session cannot
    grow without bound.  ``ingest`` merges span dicts recorded by
    another process (the worker returns its spans in the job payload).
    """

    def __init__(self, process="", limit=100_000):
        self.process = process
        self.limit = limit
        self.spans = []
        self.dropped = 0
        self._stack = []

    def current_span(self):
        """The innermost span opened by :meth:`span`, or ``None``.

        This is how deep layers (the runner) parent their spans
        without plumbing: the worker wraps job execution in a
        ``worker.execute`` span, and anything opened underneath nests
        automatically.
        """
        return self._stack[-1] if self._stack else None

    def start_span(self, name, parent=None, trace_id=None, start=None,
                   attrs=None, process=None):
        """Open a span.  ``parent`` is a :class:`Span` or an injected
        context dict (``{"trace_id", "span_id"}``) from another
        process; when omitted the current :meth:`span` context (if any)
        becomes the parent, else the span is a new root."""
        if parent is None:
            parent = self.current_span()
        parent_id = None
        if isinstance(parent, Span):
            trace_id = trace_id or parent.trace_id
            parent_id = parent.span_id
        elif isinstance(parent, dict):
            trace_id = trace_id or parent.get("trace_id")
            parent_id = parent.get("span_id")
        return Span(name, trace_id=trace_id, parent_id=parent_id,
                    start=start, attrs=attrs,
                    process=self.process if process is None else process)

    def record(self, span, end=None, status=None):
        """Finish ``span`` (if still open) and retain it."""
        span.finish(end=end, status=status)
        if self.limit is not None and len(self.spans) >= self.limit:
            self.dropped += 1
        else:
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, parent=None, **kwargs):
        span = self.start_span(name, parent=parent, **kwargs)
        self._stack.append(span)
        try:
            yield span
        except BaseException:
            self.record(span, status="error")
            raise
        finally:
            self._stack.pop()
        self.record(span)

    def ingest(self, span_dicts):
        """Merge spans serialised by another process's tracer."""
        for data in span_dicts or ():
            if self.limit is not None and len(self.spans) >= self.limit:
                self.dropped += 1
            else:
                self.spans.append(Span.from_dict(data))

    @staticmethod
    def inject(span):
        """The JSON-able propagation context for ``span``."""
        return {"trace_id": span.trace_id, "span_id": span.span_id}

    @staticmethod
    def extract(context):
        """Validate an injected context dict (or return ``None``)."""
        if (isinstance(context, dict) and context.get("trace_id")
                and context.get("span_id")):
            return {"trace_id": str(context["trace_id"]),
                    "span_id": str(context["span_id"])}
        return None

    def drain(self):
        """Finished spans as dicts, clearing the tracer."""
        spans, self.spans = self.spans, []
        return [span.as_dict() for span in spans]

    def to_dicts(self):
        return [span.as_dict() for span in self.spans]

    def to_ndjson(self, path):
        """Write every finished span as NDJSON; returns path or None."""
        try:
            os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
            with open(path, "w") as stream:
                for span in self.spans:
                    stream.write(json.dumps(span.as_dict(), sort_keys=True,
                                            separators=(",", ":")) + "\n")
        except OSError:
            return None
        return path


def load_ndjson_spans(path):
    """Read spans written by :meth:`Tracer.to_ndjson` back as dicts."""
    spans = []
    with open(path) as stream:
        for line in stream:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


# -- process-global telemetry slot ----------------------------------------

_ACTIVE_TRACER = None


def install(tracer):
    """Install ``tracer`` as this process's active tracer; returns the
    previous one (``None`` to uninstall)."""
    global _ACTIVE_TRACER
    previous = _ACTIVE_TRACER
    _ACTIVE_TRACER = tracer
    return previous


def active_tracer():
    """The process-global tracer, or ``None`` when telemetry is off.

    Call sites guard with ``is None`` — uninstalled telemetry costs one
    module attribute load and never perturbs simulated statistics.
    """
    return _ACTIVE_TRACER
