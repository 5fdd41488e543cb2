"""Observability: probe bus, profilers, timeline export, run manifests.

Everything here is opt-in side-band instrumentation.  With no probes
attached (``sm.probes is None``, the default) the simulator's hot path
and its statistics are bit-identical to an uninstrumented build; see
``repro/obs/probes.py`` for the event catalogue and the cycle-accounting
invariant the profilers rely on.
"""

from repro.obs.boundscheck import BoundsCheckCounter
from repro.obs.manifest import (
    build_manifest,
    diff_manifests,
    load_manifest,
    render_diff,
    write_manifest,
)
from repro.obs.perfetto import (
    TimelineCollector,
    spans_to_trace_events,
    validate_trace,
    write_service_trace,
)
from repro.obs.probes import EVENTS, ProbeBus, attach, detach
from repro.obs.profile import STALL_CAUSES, ProfileCollector, classify_op
from repro.obs.telemetry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    Tracer,
    active_tracer,
    install,
)

__all__ = [
    "EVENTS", "ProbeBus", "attach", "detach",
    "BoundsCheckCounter",
    "ProfileCollector", "STALL_CAUSES", "classify_op",
    "TimelineCollector", "validate_trace",
    "spans_to_trace_events", "write_service_trace",
    "build_manifest", "write_manifest", "load_manifest",
    "diff_manifests", "render_diff",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "Span", "Tracer", "active_tracer", "install",
]
