"""Plain-text rendering of experiment results (the paper's rows/series).

Besides the ``render_*`` table formatters, :func:`to_jsonable` and
:func:`write_structured` turn the same experiment outputs into JSON, so
every regenerated table also lands machine-readable under ``results/``
(consumed by plotting scripts and the manifest ``diff`` workflow).
"""

import json
import os


def pct(value):
    return "%+.1f%%" % (100.0 * value)


def to_jsonable(value):
    """Recursively convert experiment output into JSON-serialisable data.

    Experiments return plain rows (lists of dicts/tuples) but keys and
    leaves can be opcodes, Counters, sets, or dataclasses; normalise all
    of them so ``json.dump`` never trips.
    """
    from dataclasses import asdict, is_dataclass
    if isinstance(value, dict):
        return {str(getattr(k, "name", k)): to_jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_jsonable(v) for v in value)
    if is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(asdict(value))
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "name"):  # enum-ish (opcodes)
        return value.name
    return str(value)


def write_structured(directory, name, data):
    """Write ``data`` as ``<directory>/<name>.json``; returns the path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(str(directory), "%s.json" % name)
    with open(path, "w") as stream:
        json.dump(to_jsonable(data), stream, indent=1, sort_keys=True)
        stream.write("\n")
    return path


def render_fig6(series):
    lines = ["Figure 6: CHERI instruction execution frequency"]
    for name, fraction in series:
        bar = "#" * max(1, int(400 * fraction))
        lines.append("  %-16s %6.2f%%  %s" % (name, 100 * fraction, bar))
    return "\n".join(lines)


def render_table2(rows):
    lines = [
        "Table 2: register-file compression (baseline, paper geometry)",
        "  %-18s %-12s %-10s %-10s %-10s" % (
            "VRF (registers)", "Storage(Kb)", "Ratio", "Cycle ovh",
            "Mem ovh"),
    ]
    for row in rows:
        lines.append("  %-18s %-12d 1:%.2f     %-10s %-10s" % (
            "%d (%s)" % (row["vrf_registers"], _frac(row["fraction"])),
            row["storage_kb"], row["compress_ratio"],
            pct(row["cycle_overhead"]), pct(row["mem_access_overhead"])))
    return "\n".join(lines)


def _frac(fraction):
    from fractions import Fraction
    f = Fraction(fraction).limit_denominator(16)
    return "%d/%d" % (f.numerator, f.denominator)


def render_fig10(rows):
    lines = [
        "Figure 10: registers resident as vectors in the VRF (lower=better)",
        "  %-12s %8s %10s %12s" % ("benchmark", "gp", "meta+NVO",
                                   "meta-no-NVO"),
    ]
    for row in rows:
        lines.append("  %-12s %7.2f%% %9.2f%% %11.2f%%" % (
            row["benchmark"], 100 * row["gp"], 100 * row["meta_nvo"],
            100 * row["meta_no_nvo"]))
    return "\n".join(lines)


def render_fig11(series):
    lines = ["Figure 11: registers per thread holding capabilities (of 32)"]
    for name, count in series:
        lines.append("  %-12s %2d %s" % (name, count, "#" * count))
    return "\n".join(lines)


def render_fig12(rows):
    lines = [
        "Figure 12: DRAM traffic with/without CHERI",
        "  %-12s %14s %14s %8s" % ("benchmark", "baseline(B)",
                                   "CHERI(B)", "ratio"),
    ]
    for row in rows:
        lines.append("  %-12s %14d %14d %7.3fx" % (
            row["benchmark"], row["baseline_bytes"], row["cheri_bytes"],
            row["ratio"]))
    return "\n".join(lines)


def render_overheads(title, rows, mean):
    lines = [title]
    for name, overhead in rows:
        lines.append("  %-12s %8s" % (name, pct(overhead)))
    lines.append("  %-12s %8s" % ("geomean", pct(mean)))
    return "\n".join(lines)


def render_fig13(data):
    return render_overheads(
        "Figure 13: CHERI (Optimised) execution-time overhead vs Baseline",
        data["rows"], data["geomean"])


def render_fig14(data):
    return render_overheads(
        "Figure 14: software bounds-checking overhead vs Baseline "
        "(Rust-style per-access checks)", data["rows"], data["geomean"])


def render_table3(rows):
    lines = [
        "Table 3: synthesis results (area model, paper geometry)",
        "  %-20s %10s %6s %12s %6s" % ("Configuration", "ALMs", "DSPs",
                                       "BRAM (Kb)", "Fmax"),
    ]
    for name, alms, dsps, bram, fmax in rows:
        lines.append("  %-20s %10d %6d %12d %6d" % (name, alms, dsps,
                                                    bram, fmax))
    return "\n".join(lines)


def render_fig7(costs):
    lines = ["Figure 7: CheriCapLib function costs (ALMs)"]
    for name, alms in costs.items():
        lines.append("  %-18s %5d" % (name, alms))
    lines.append("  (reference: 32-bit multiplier = 567 ALMs)")
    return "\n".join(lines)


def render_headline(summary):
    return "\n".join([
        "Headline claims (paper abstract) vs this reproduction:",
        "  register-file storage overhead: paper 14%%  -> %.1f%%"
        % (100 * summary["rf_storage_overhead"]),
        "  ... with half-size metadata SRF: paper 7%%  -> %.1f%%"
        % (100 * summary["rf_storage_overhead_halved_srf"]),
        "  logic-area overhead reduction:  paper 44%% -> %.1f%%"
        % (100 * summary["area_overhead_reduction"]),
        "  execution-time overhead:        paper 1.6%% -> %.2f%%"
        % (100 * summary["execution_overhead"]),
        "  software bounds-check overhead: paper 34%% -> %.1f%%"
        % (100 * summary["boundscheck_overhead"]),
    ])


def render_simd_efficiency(rows):
    lines = ["SIMD lane utilisation (fraction of lanes active per issue)"]
    for name, eff in rows:
        lines.append("  %-12s %6.1f%%  %s" % (name, 100 * eff,
                                              "#" * int(40 * eff)))
    return "\n".join(lines)


def render_value_regularity(rows):
    lines = ["Value regularity of register-file writes",
             "  %-12s %10s %10s %14s %14s" % (
                 "benchmark", "gp unif", "gp affine", "meta unif",
                 "meta p-null")]
    for row in rows:
        lines.append("  %-12s %9.1f%% %9.1f%% %13.1f%% %13.1f%%" % (
            row["benchmark"], 100 * row["gp_uniform"],
            100 * row["gp_affine"], 100 * row["meta_uniform"],
            100 * row["meta_partial_null"]))
    return "\n".join(lines)


def render_opt_gap(summary):
    lines = [
        "Software bounds-check gap: boundscheck mode, -O0 vs -O1",
        "(geometry %dx%d, scale %d; dynamic counts are per-thread)"
        % (summary["geometry"]["num_warps"],
           summary["geometry"]["num_lanes"], summary["scale"]),
        "",
        "%-12s %22s %22s %22s" % ("benchmark", "bounds checks (O0->O1)",
                                  "thread instrs (O0->O1)",
                                  "cycles (O0->O1)"),
    ]
    for row in summary["rows"]:
        o0, o1, delta = row["o0"], row["o1"], row["delta_pct"]
        lines.append(
            "%-12s %9d->%-9d%+5.1f%% %9d->%-9d%+5.1f%% %9d->%-9d%+5.1f%%"
            % (row["benchmark"],
               o0["checks_executed"], o1["checks_executed"],
               delta["checks_executed"],
               o0["thread_instrs"], o1["thread_instrs"],
               delta["thread_instrs"],
               o0["cycles"], o1["cycles"], delta["cycles"]))
    lines.append("")
    lines.append("%d of %d benchmarks execute fewer dynamic bounds checks "
                 "at -O1" % (summary["benchmarks_with_fewer_dynamic_checks"],
                             summary["benchmarks_total"]))
    return "\n".join(lines)


def render_bench(rows):
    """The paper artifact's ``.bench`` format: one line per benchmark."""
    lines = ["%s cycles=%d instrs=%d ipc=%.3f dram_bytes=%d"
             % (row["benchmark"], row["cycles"], row["instrs"], row["ipc"],
                row["dram_bytes"]) for row in rows]
    lines.append("All tests passed")
    return "\n".join(lines)
