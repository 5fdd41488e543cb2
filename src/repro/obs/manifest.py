"""Structured run manifests: what ran, under what, and what it measured.

Every :func:`repro.eval.runner.run_suite` call emits one JSON manifest
(``results/manifests/<config>_s<scale>.json`` unless redirected with the
``REPRO_MANIFEST_DIR`` environment variable).  A manifest captures the
full per-benchmark statistics plus enough provenance to interpret them
later: configuration name and mode, SM geometry, scale, per-run cache
source (memo / disk / fresh simulation), the simulator-source digest the
disk cache was keyed on, the git revision, and wall-clock cost.

``python -m repro diff A.json B.json`` compares two manifests metric by
metric and exits non-zero when any *higher-is-worse* metric regressed
beyond the threshold, and flags a manifest whose process lost an
earlier manifest to a failed write (:func:`manifest_failure_alerts`).
"""

import hashlib
import json
import os
import time

#: Manifest schema version; bump on incompatible layout changes.
SCHEMA = 2

#: Metrics where a larger value is a regression.  Everything else in the
#: stats block is informational (e.g. ``instrs_issued`` legitimately
#: differs across configs; ``ipc`` is higher-is-better).
REGRESSION_METRICS = (
    "cycles",
    "dram_read_bytes",
    "dram_write_bytes",
    "dram_spill_bytes",
    "dram_tag_bytes",
    "dram_txns",
    "gp_spills",
    "meta_spills",
    "stall_shared_vrf",
    "stall_csc_operand",
    "stall_bank_conflict",
    "stall_atomic_serial",
)

#: Default relative-regression tolerance for :func:`diff_manifests`.
DEFAULT_THRESHOLD = 0.02


def _git_revision():
    """Best-effort current git revision without shelling out."""
    import repro
    root = os.path.dirname(repro.RESULTS_DIR)  # results/ is at the root
    try:
        head_path = os.path.join(root, ".git", "HEAD")
        with open(head_path) as stream:
            head = stream.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(root, ".git", *ref.split("/"))
            if os.path.exists(ref_path):
                with open(ref_path) as stream:
                    return stream.read().strip()
            packed = os.path.join(root, ".git", "packed-refs")
            with open(packed) as stream:
                for line in stream:
                    if line.endswith(ref + "\n"):
                        return line.split()[0]
            return ""
        return head
    except OSError:
        return ""


def manifest_dir():
    """Where manifests land (``results/manifests`` unless overridden)."""
    override = os.environ.get("REPRO_MANIFEST_DIR")
    if override:
        return override
    import repro
    return os.path.join(repro.RESULTS_DIR, "manifests")


def default_path(config_name, scale, opt=0, overrides=None):
    """Stable per-(config, scale, opt, overrides) filename, so reruns
    overwrite in place — and neither an ``-O1`` sweep nor a suite that
    overrides fields of the named configuration (Table 2's VRF sizes)
    clobbers the plain ``<config>_s<scale>.json`` record."""
    suffix = "_O%d" % opt if opt else ""
    if overrides:
        suffix += "_" + hashlib.sha1(
            repr(sorted(overrides.items())).encode()).hexdigest()[:8]
    return os.path.join(manifest_dir(),
                        "%s_s%d%s.json" % (config_name, scale, suffix))


def build_manifest(results, config_name, scale, wall_seconds,
                   sources_digest="", runner_counters=None, overrides=None):
    """Assemble the manifest dict for one ``run_suite`` invocation.

    ``results`` maps benchmark name -> :class:`RunResult`.  The SM
    geometry is lifted from the first result's config (identical across
    the suite by construction); ``overrides`` are the config fields the
    suite changed in the named configuration.
    """
    from dataclasses import asdict
    benchmarks = {}
    mode = None
    geometry = {}
    for name, result in results.items():
        if mode is None:
            mode = result.mode
            geometry = {"num_warps": result.config.num_warps,
                        "num_lanes": result.config.num_lanes}
        meta = result.meta
        benchmarks[name] = {
            "stats": result.stats.as_dict(),
            "cache_source": meta.source if meta else "memo",
            "sim_seconds": round(meta.wall_seconds, 6) if meta else 0.0,
        }
        # Additive: per-kernel optimizer pass reports when the run was
        # compiled at -O1 (absent on -O0 runs and pre-opt disk caches).
        opt_reports = getattr(meta, "opt", None) if meta else None
        if opt_reports is not None:
            benchmarks[name]["opt"] = opt_reports
    first = next(iter(results.values()), None)
    return {
        "schema": SCHEMA,
        "generator": "repro.eval.runner",
        "created_unix": round(time.time(), 3),
        "config": config_name,
        "overrides": dict(sorted((overrides or {}).items())),
        "mode": mode or "",
        "scale": scale,
        "opt": getattr(first.config, "opt", 0) if first else 0,
        "backend": first.config.backend if first else "",
        "geometry": geometry,
        "sm_config": dict(sorted(asdict(first.config).items())) if first
        else {},
        "wall_seconds": round(wall_seconds, 6),
        "sources_digest": sources_digest,
        "git_revision": _git_revision(),
        "runner_counters": dict(runner_counters or {}),
        "benchmarks": benchmarks,
    }


def write_manifest(manifest, path=None):
    """Write ``manifest`` as JSON (atomic rename); returns the path.

    Never raises on filesystem trouble — a read-only checkout must not
    break experiments — but returns ``None`` in that case.
    """
    if path is None:
        path = default_path(manifest["config"], manifest["scale"],
                            manifest.get("opt", 0),
                            manifest.get("overrides"))
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        tmp = "%s.tmp.%d" % (path, os.getpid())
        with open(tmp, "w") as stream:
            json.dump(manifest, stream, indent=1, sort_keys=True)
            stream.write("\n")
        os.replace(tmp, path)
    except OSError:
        return None
    return path


def build_service_manifest(snapshot, jobs=None, telemetry=None):
    """Assemble a manifest for one ``repro serve`` session.

    ``snapshot`` is the server's metrics snapshot (queue depth, dedup and
    cache hits, worker utilization, latency percentiles); ``jobs`` an
    optional list of per-job summary dicts; ``telemetry`` an optional
    dict of sidecar artifact paths (metrics NDJSON, trace NDJSON,
    Perfetto service trace) written alongside at drain.  Written on
    drain so a service session leaves the same provenance trail a
    ``run_suite`` invocation does.
    """
    manifest = {
        "schema": SCHEMA,
        "generator": "repro.serve",
        "created_unix": round(time.time(), 3),
        "git_revision": _git_revision(),
        "service": dict(snapshot),
        "jobs": list(jobs or []),
    }
    if telemetry:
        manifest["telemetry"] = dict(telemetry)
    return manifest


def write_service_manifest(snapshot, jobs=None, path=None, telemetry=None):
    """Write the service manifest (best-effort); returns path or None."""
    if path is None:
        path = os.path.join(manifest_dir(), "serve.json")
    return write_manifest(build_service_manifest(snapshot, jobs,
                                                 telemetry=telemetry),
                          path=path)


def load_manifest(path):
    with open(path) as stream:
        manifest = json.load(stream)
    if "benchmarks" not in manifest:
        raise ValueError("%s is not a run manifest (no benchmarks key)"
                         % path)
    return manifest


def manifest_failure_alerts(manifests):
    """One line per ``(label, manifest)`` pair whose runner counters
    recorded manifest-write failures: some earlier suite invocation in
    that process lost its provenance (the write was logged and counted,
    but no file exists to compare), so the manifest trail has a gap."""
    lines = []
    for label, manifest in manifests:
        counters = manifest.get("runner_counters") or {}
        failures = counters.get("manifest_write_failures", 0)
        if failures:
            lines.append(
                "%s: %d manifest write failure(s) recorded in this "
                "process — provenance trail has gaps" % (label, failures))
    return lines


def manifest_backend(manifest):
    """The execution backend a manifest was produced with.

    Top-level ``backend`` key on current manifests; fished out of the
    ``sm_config`` dump for older ones.  Empty string when unknown.
    """
    return (manifest.get("backend")
            or manifest.get("sm_config", {}).get("backend", ""))


def manifest_opt(manifest):
    """The compiler opt level a manifest's suite ran at (0 when absent —
    every pre-opt manifest compiled the direct frontend output)."""
    return int(manifest.get("opt")
               or manifest.get("sm_config", {}).get("opt", 0) or 0)


def diff_manifests(old, new, threshold=DEFAULT_THRESHOLD,
                   metrics=REGRESSION_METRICS):
    """Per-benchmark, per-metric comparison of two manifests.

    Returns a list of row dicts with keys ``benchmark``, ``metric``,
    ``old``, ``new``, ``delta``, ``ratio`` and ``regressed`` (True when
    the metric is higher-is-worse and grew by more than ``threshold``
    relative — or appeared from zero).  Benchmarks present in only one
    manifest are reported with metric ``<missing>``.  A metric key
    present in only one manifest (schema drift: a counter added or
    removed between versions) yields an informational row with a
    ``note`` and is never a regression.  A genuinely zero baseline has
    no meaningful ratio (``ratio`` is None, never infinite): growth from
    zero still regresses, rendered as ``+new``.  When the two manifests
    were produced by different execution backends, an informational
    ``<suite>``/``backend`` row flags the cross-backend comparison.
    """
    rows = []
    old_backend = manifest_backend(old)
    new_backend = manifest_backend(new)
    if old_backend != new_backend:
        # Backends are bit-identical by construction, so metric changes
        # across them point at a backend bug, not a workload change —
        # worth a loud informational row up front.
        rows.append({"benchmark": "<suite>", "metric": "backend",
                     "old": old_backend or "?", "new": new_backend or "?",
                     "delta": None, "ratio": None, "regressed": False,
                     "note": "cross-backend comparison"})
    old_opt = manifest_opt(old)
    new_opt = manifest_opt(new)
    if old_opt != new_opt:
        # Unlike backends, opt levels legitimately change the metrics —
        # that is their point — so flag the comparison rather than let a
        # reader mistake an -O1 improvement for a workload change.
        rows.append({"benchmark": "<suite>", "metric": "opt",
                     "old": "O%d" % old_opt, "new": "O%d" % new_opt,
                     "delta": None, "ratio": None, "regressed": False,
                     "note": "cross-opt-level comparison"})
    old_benches = old.get("benchmarks", {})
    new_benches = new.get("benchmarks", {})
    for name in sorted(set(old_benches) | set(new_benches)):
        if name not in new_benches or name not in old_benches:
            rows.append({"benchmark": name, "metric": "<missing>",
                         "old": name in old_benches,
                         "new": name in new_benches,
                         "delta": None, "ratio": None, "regressed": True})
            continue
        old_stats = old_benches[name].get("stats", {})
        new_stats = new_benches[name].get("stats", {})
        for metric in metrics:
            in_old = metric in old_stats
            in_new = metric in new_stats
            if not in_old and not in_new:
                continue
            if in_old != in_new:
                rows.append({"benchmark": name, "metric": metric,
                             "old": old_stats.get(metric),
                             "new": new_stats.get(metric),
                             "delta": None, "ratio": None,
                             "regressed": False,
                             "note": "only in %s"
                                     % ("old" if in_old else "new")})
                continue
            old_value = old_stats[metric]
            new_value = new_stats[metric]
            delta = new_value - old_value
            ratio = (new_value / old_value) if old_value else None
            regressed = (delta > 0 and
                         (old_value == 0 or ratio > 1.0 + threshold))
            rows.append({"benchmark": name, "metric": metric,
                         "old": old_value, "new": new_value,
                         "delta": delta, "ratio": ratio,
                         "regressed": regressed})
    return rows


def render_diff(rows, old_label="A", new_label="B", verbose=False):
    """Human-readable diff table; regressions always shown, unchanged
    metrics only with ``verbose``."""
    lines = []
    shown = [row for row in rows
             if verbose or row["regressed"] or row["delta"]
             or row.get("note")]
    regressions = [row for row in rows if row["regressed"]]
    lines.append("%-12s %-22s %14s %14s %10s" % (
        "benchmark", "metric", old_label, new_label, "change"))
    if not shown:
        lines.append("  (no differences in tracked metrics)")
    for row in shown:
        if row["metric"] == "<missing>":
            lines.append("%-12s %-22s %14s %14s %10s" % (
                row["benchmark"], row["metric"],
                "present" if row["old"] else "-",
                "present" if row["new"] else "-", "!!"))
            continue
        if row.get("note"):
            lines.append("%-12s %-22s %14s %14s %10s" % (
                row["benchmark"], row["metric"],
                "-" if row["old"] is None else row["old"],
                "-" if row["new"] is None else row["new"],
                "(%s)" % row["note"]))
            continue
        if row["ratio"] is None:
            change = "+new" if row["delta"] else "="
        else:
            change = "%+.2f%%" % (100.0 * (row["ratio"] - 1.0))
        lines.append("%-12s %-22s %14d %14d %10s%s" % (
            row["benchmark"], row["metric"], row["old"], row["new"],
            change, "  << REGRESSED" if row["regressed"] else ""))
    lines.append("")
    lines.append("%d metric(s) regressed beyond threshold"
                 % len(regressions) if regressions
                 else "no regressions beyond threshold")
    return "\n".join(lines)
