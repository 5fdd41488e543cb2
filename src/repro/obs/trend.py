"""Longitudinal performance trends: BENCH histories + manifest chains.

``repro obs report`` aggregates the two provenance trails this repo
already leaves behind —

- ``BENCH_runner.json``: the appended wall-clock trajectory written by
  ``scripts/bench_runner.py`` across commits, and
- run manifests (``repro.obs.manifest``) captured at different
  revisions —

into per-group trend tables with regression flags, so a perf-sensitive
change can be gated in CI against the checked-in history rather than a
single ad-hoc A/B diff.

Wall-clock numbers are only comparable when measured on the same
machine under the same workload shape, so BENCH records are grouped by
``(config, scale, backend, host)`` before any two are compared — a
record from a different host opens a new group and can never
false-flag.  Within a group each metric is compared against the
*previous comparable record* using the same relative threshold as
``repro diff`` (:data:`repro.obs.manifest.DEFAULT_THRESHOLD` by
default, though wall-clock gating typically wants a looser one), with
an absolute noise floor so microsecond-scale cache-hit timings cannot
trip the gate.

Manifest chains reuse :func:`repro.obs.manifest.diff_manifests`
pairwise over a chronological sequence of manifest files.
"""

import json
import os

from repro.obs.manifest import (
    DEFAULT_THRESHOLD,
    diff_manifests,
    load_manifest,
)

#: Higher-is-worse wall-clock metrics tracked across BENCH records.
BENCH_METRICS = (
    "cold_serial_seconds",
    "cold_parallel_seconds",
    "warm_disk_seconds",
    "warm_memo_seconds",
)

#: Wall-clock readings below this many seconds are noise (cache-hit
#: paths time at single milliseconds); they are reported but never
#: flagged as regressions.
NOISE_FLOOR_SECONDS = 0.1

#: Default relative threshold for wall-clock trends.  Looser than the
#: manifest default (2%): wall-clock on a shared machine jitters far
#: more than cycle counts do.
BENCH_THRESHOLD = 0.10


def load_bench_history(path):
    """The BENCH_runner.json record list (chronological, oldest first)."""
    with open(path) as stream:
        history = json.load(stream)
    if not isinstance(history, list):
        raise ValueError("%s is not a BENCH history (expected a list)"
                         % path)
    return history


def host_key(record):
    """The comparability key of where a record was measured.

    Records written before host provenance was stamped fall back to the
    bare ``cpu_count`` — the only host signal they carry — so the
    checked-in early history still forms one comparable group.
    """
    host = record.get("host") or {}
    if host:
        return "%s/%sc/py%s" % (host.get("cpu_model", "?"),
                                host.get("cpu_count", "?"),
                                host.get("python_version", "?"))
    return "unknown/%sc" % record.get("cpu_count", "?")


def group_key(record):
    """Records are only compared within one of these groups."""
    return (record.get("config", "?"), record.get("scale", 1),
            record.get("backend") or "", host_key(record))


def _label(record):
    return record.get("git_rev") or (record.get("label") or "?")[:12]


def bench_trends(history, metrics=BENCH_METRICS, threshold=BENCH_THRESHOLD,
                 noise_floor=NOISE_FLOOR_SECONDS, breakdown=False):
    """Trend rows over a BENCH history.

    Returns a list of row dicts — one per (group, metric) with at least
    one record — carrying the full value series plus the latest-vs-
    previous comparison: ``group``, ``metric``, ``series`` (list of
    ``(rev, value)``), ``old``, ``new``, ``delta``, ``ratio``,
    ``regressed``.  With ``breakdown`` per-benchmark cold-serial rows
    (``cold_serial_breakdown``) are included as
    ``cold_serial_seconds[<bench>]``.
    """
    groups = {}
    for record in history:
        groups.setdefault(group_key(record), []).append(record)
    rows = []
    for key in sorted(groups, key=str):
        records = groups[key]
        names = list(metrics)
        if breakdown:
            benches = set()
            for record in records:
                benches.update(record.get("cold_serial_breakdown") or ())
            names += ["cold_serial_seconds[%s]" % bench
                      for bench in sorted(benches)]
        for metric in names:
            series = []
            for record in records:
                if metric.endswith("]"):
                    _base, bench = metric[:-1].split("[", 1)
                    value = (record.get("cold_serial_breakdown") or {}) \
                        .get(bench)
                else:
                    value = record.get(metric)
                if isinstance(value, (int, float)):
                    series.append((_label(record), float(value)))
            if not series:
                continue
            row = {"group": key, "metric": metric, "series": series,
                   "old": None, "new": series[-1][1], "delta": None,
                   "ratio": None, "regressed": False}
            if len(series) >= 2:
                old = series[-2][1]
                new = series[-1][1]
                row["old"] = old
                row["delta"] = round(new - old, 6)
                row["ratio"] = (new / old) if old else None
                row["regressed"] = bool(
                    new - old > 0
                    and new >= noise_floor
                    and (old == 0 or row["ratio"] > 1.0 + threshold))
            rows.append(row)
    return rows


def manifest_trends(paths, threshold=DEFAULT_THRESHOLD):
    """Pairwise chained diffs over a chronological manifest sequence.

    Returns ``(steps, rows)``: ``steps`` is a list of
    ``(old_path, new_path, diff_rows)`` from
    :func:`repro.obs.manifest.diff_manifests`; ``rows`` flattens every
    regressed entry with the step labels attached.
    """
    manifests = [(path, load_manifest(path)) for path in paths]
    steps = []
    regressed = []
    for (old_path, old), (new_path, new) in zip(manifests, manifests[1:]):
        diff = diff_manifests(old, new, threshold=threshold)
        steps.append((old_path, new_path, diff))
        for row in diff:
            if row["regressed"]:
                entry = dict(row)
                entry["old_manifest"] = os.path.basename(old_path)
                entry["new_manifest"] = os.path.basename(new_path)
                regressed.append(entry)
    return steps, regressed


def manifest_failure_alerts(paths):
    """Flag manifests whose runner counters recorded manifest-write
    failures: some earlier suite invocation in that process lost its
    provenance (the write was logged and counted, but no file exists
    to chain), so the manifest trail has a gap."""
    lines = []
    for path in paths:
        try:
            manifest = load_manifest(path)
        except Exception:
            continue
        counters = manifest.get("runner_counters") or {}
        failures = counters.get("manifest_write_failures", 0)
        if failures:
            lines.append(
                "%s: %d manifest write failure(s) recorded in this "
                "process — provenance trail has gaps"
                % (os.path.basename(path), failures))
    return lines


def _fmt_group(key):
    config, scale, backend, host = key
    backend = backend or "default"
    return "%s s%s %s @ %s" % (config, scale, backend, host)


def _fmt_value(value):
    if value is None:
        return "-"
    return ("%.3f" % value).rstrip("0").rstrip(".") or "0"


def render_bench_trends(rows):
    """The trend rows as a human-readable report."""
    lines = []
    regressions = [row for row in rows if row["regressed"]]
    last_group = None
    for row in rows:
        if row["group"] != last_group:
            last_group = row["group"]
            lines.append("")
            lines.append(_fmt_group(row["group"]))
            lines.append("  %-38s %-34s %10s" % ("metric", "trend",
                                                 "change"))
        trail = " -> ".join(_fmt_value(value)
                            for _rev, value in row["series"][-5:])
        if row["ratio"] is not None:
            change = "%+.1f%%" % (100.0 * (row["ratio"] - 1.0))
        elif row["delta"]:
            change = "+new"
        else:
            change = "="
        lines.append("  %-38s %-34s %10s%s" % (
            row["metric"], trail, change,
            "  << REGRESSED" if row["regressed"] else ""))
    lines.append("")
    lines.append("%d wall-clock metric(s) regressed beyond threshold"
                 % len(regressions) if regressions
                 else "no wall-clock regressions beyond threshold")
    return "\n".join(lines).lstrip("\n")


def render_manifest_trends(steps, regressed):
    lines = []
    for old_path, new_path, diff in steps:
        flagged = sum(1 for row in diff if row["regressed"])
        lines.append("%s -> %s: %d regression(s)"
                     % (os.path.basename(old_path),
                        os.path.basename(new_path), flagged))
    for row in regressed:
        lines.append("  %s/%s %s: %s -> %s"
                     % (row["new_manifest"], row["benchmark"],
                        row["metric"], row["old"], row["new"]))
    if not steps:
        lines.append("(fewer than two manifests: nothing to chain)")
    return "\n".join(lines)


def trend_report(bench_path=None, manifest_paths=(), threshold=None,
                 breakdown=False):
    """The combined trend report; returns ``(text, regressed_count)``.

    ``threshold`` overrides both the wall-clock and the manifest
    threshold when given; otherwise each side uses its own default.
    """
    sections = []
    regressed = 0
    if bench_path and os.path.exists(bench_path):
        rows = bench_trends(
            load_bench_history(bench_path),
            threshold=BENCH_THRESHOLD if threshold is None else threshold,
            breakdown=breakdown)
        regressed += sum(1 for row in rows if row["regressed"])
        sections.append("== BENCH trajectory (%s) ==" % bench_path)
        sections.append(render_bench_trends(rows))
    elif bench_path:
        sections.append("== BENCH trajectory ==")
        sections.append("(no history at %s)" % bench_path)
    if len(manifest_paths) >= 2:
        steps, rows = manifest_trends(
            manifest_paths,
            threshold=DEFAULT_THRESHOLD if threshold is None
            else threshold)
        regressed += len(rows)
        sections.append("")
        sections.append("== manifest chain ==")
        sections.append(render_manifest_trends(steps, rows))
    if manifest_paths:
        alerts = manifest_failure_alerts(manifest_paths)
        if alerts:
            sections.append("")
            sections.append("== manifest write failures ==")
            sections.extend(alerts)
    return "\n".join(sections), regressed
