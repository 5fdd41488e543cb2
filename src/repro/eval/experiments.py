"""One driver per table/figure of the paper's evaluation (section 4).

Each function returns plain data (rows / series); :data:`ARTIFACTS` pairs
it with its :mod:`repro.eval.report` renderer under the file stem it is
checked in as, and :func:`write_artifact` writes ``results/<stem>.*``
(``python -m repro results [NAME ...]``).
"""

import os
from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.area.model import paper_geometry, table3_rows
from repro.benchsuite import ALL_BENCHMARKS, BENCHMARK_NAMES
from repro.eval import report
from repro.eval.ablations import (
    hardware_ablation,
    render_ablation,
    runtime_ablation,
)
from repro.eval.runner import geomean, run_suite
from repro.simt.config import REGS_PER_THREAD, SMConfig


# ---------------------------------------------------------------------------
# Figure 6: CHERI instruction execution frequency
# ---------------------------------------------------------------------------

def fig6_cheri_instruction_frequency(scale=1):
    """Average execution frequency of each CHERI instruction across the
    suite, relative to total instructions executed."""
    totals = {}
    grand_total = 0
    for result in run_suite("cheri_opt", scale=scale).values():
        for op, count in result.stats.opcode_counts.items():
            totals[op] = totals.get(op, 0) + count
            grand_total += count
    from repro.isa.instructions import CHERI_OPS
    series = [
        (op.name, totals[op] / grand_total)
        for op in sorted(totals, key=lambda o: -totals[o])
        if op in CHERI_OPS
    ]
    return series


# ---------------------------------------------------------------------------
# Table 2: register-file compression vs VRF size (baseline, no CHERI)
# ---------------------------------------------------------------------------

def table2_rf_compression(fractions=(0.5, 0.375, 0.25, 0.125, 0.0625),
                          scale=1):
    """Storage, compression ratio, and cycle/memory overheads per VRF size.

    Overheads are relative to an uncompressed (full-size VRF) register
    file; storage is reported at the paper's 64x32 geometry.  The paper's
    rows are 1/2, 3/8, 1/4; two smaller sizes are swept as well because
    this reproduction's compiler keeps fewer live uncompressible vectors
    than Clang 13, which moves the spill cliff to a smaller VRF (the
    *shape* — flat, then a cliff of cycle and DRAM overhead — is the
    paper's result).
    """
    reference = run_suite("baseline", scale=scale, vrf_fraction=1.0)
    rows = []
    for fraction in fractions:
        runs = run_suite("baseline", scale=scale, vrf_fraction=fraction)
        cycle_overheads, mem_overheads = [], []
        for name in BENCHMARK_NAMES:
            ref, got = reference[name].stats, runs[name].stats
            cycle_overheads.append(got.cycles / ref.cycles - 1.0)
            ref_bytes = max(1, ref.dram_total_bytes)
            mem_overheads.append(got.dram_total_bytes / ref_bytes - 1.0)
        paper_cfg = paper_geometry(SMConfig.baseline,
                                   ).with_(vrf_fraction=fraction)
        from repro.area.model import _regfile_bits
        vrf_bits, srf_bits = _regfile_bits(paper_cfg)
        storage_kb = (vrf_bits + srf_bits) // 1024
        uncompressed_kb = (REGS_PER_THREAD * paper_cfg.num_threads * 32) // 1024
        rows.append({
            "vrf_registers": paper_cfg.vrf_slots,
            "fraction": fraction,
            "storage_kb": storage_kb,
            "compress_ratio": storage_kb / uncompressed_kb,
            "cycle_overhead": geomean(cycle_overheads),
            "mem_access_overhead": geomean(mem_overheads),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 10: proportion of registers stored as vectors in the VRF
# ---------------------------------------------------------------------------

def fig10_vrf_residency(scale=1):
    """Per benchmark: GP-register and metadata VRF residency (with and
    without the null-value optimisation).  Lower is better."""
    with_nvo = run_suite("cheri_opt", scale=scale)
    without_nvo = run_suite("cheri_opt_no_nvo", scale=scale)
    rows = []
    for name in BENCHMARK_NAMES:
        stats = with_nvo[name].stats
        arch = with_nvo[name].config.arch_vector_regs
        rows.append({
            "benchmark": name,
            "gp": stats.vrf_residency(arch),
            "meta_nvo": stats.vrf_residency(arch, metadata=True),
            "meta_no_nvo": without_nvo[name].stats.vrf_residency(
                arch, metadata=True),
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 11: registers per thread used to hold capabilities
# ---------------------------------------------------------------------------

def fig11_capability_registers(scale=1):
    """Max architectural registers per thread ever holding a capability."""
    runs = run_suite("cheri_opt", scale=scale)
    return [(name, runs[name].stats.cap_regs_per_thread)
            for name in BENCHMARK_NAMES]


# ---------------------------------------------------------------------------
# Figure 12: DRAM bandwidth usage with/without CHERI
# ---------------------------------------------------------------------------

def fig12_dram_traffic(scale=1):
    """Per benchmark: DRAM bytes moved, baseline vs optimised CHERI."""
    base = run_suite("baseline", scale=scale)
    cheri = run_suite("cheri_opt", scale=scale)
    rows = []
    for name in BENCHMARK_NAMES:
        b = base[name].stats.dram_total_bytes
        c = cheri[name].stats.dram_total_bytes
        rows.append({
            "benchmark": name,
            "baseline_bytes": b,
            "cheri_bytes": c,
            "ratio": c / b if b else 1.0,
        })
    return rows


# ---------------------------------------------------------------------------
# Figure 13: execution-time overhead of optimised CHERI
# ---------------------------------------------------------------------------

def fig13_execution_overhead(scale=1):
    """Per benchmark cycle overhead of CHERI (Optimised) vs Baseline."""
    return _cycle_overheads("cheri_opt", scale)


def _cycle_overheads(config_name, scale):
    base = run_suite("baseline", scale=scale)
    runs = run_suite(config_name, scale=scale)
    rows = [(name, runs[name].stats.cycles / base[name].stats.cycles - 1.0)
            for name in BENCHMARK_NAMES]
    return {"rows": rows, "geomean": geomean([o for _, o in rows])}


# ---------------------------------------------------------------------------
# Figure 14: software bounds checking (the Rust comparison)
# ---------------------------------------------------------------------------

def fig14_boundscheck_overhead(scale=1):
    """Per benchmark cycle overhead of software bounds checks vs Baseline.

    Reproduces the *bounds checking* component of the paper's Rust port
    (34% geomean); the remaining Rust-codegen overhead (46% total) comes
    from compiler differences outside this reproduction's scope.
    """
    return _cycle_overheads("boundscheck", scale)


# ---------------------------------------------------------------------------
# Background: value regularity of register writes (paper section 2.2)
# ---------------------------------------------------------------------------

def value_regularity(scale=1):
    """Per benchmark: fraction of written vectors that were uniform/affine
    (data register file) and uniform/partially-null (metadata file).

    The paper's premise, quoting Collange et al.: substantial value
    regularity exists between SIMT threads, and capability metadata is
    far more regular still.
    """
    runs = run_suite("cheri_opt", scale=scale)
    rows = []
    for name in BENCHMARK_NAMES:
        stats = runs[name].stats
        gp = stats.write_regularity()
        meta = stats.write_regularity(metadata=True)
        rows.append({
            "benchmark": name,
            "gp_uniform": gp["uniform"],
            "gp_affine": gp["affine"],
            "meta_uniform": meta["uniform"],
            "meta_partial_null": meta["partial_null"],
        })
    return rows


# ---------------------------------------------------------------------------
# Background: SIMD-unit utilisation under divergence (paper section 2.1)
# ---------------------------------------------------------------------------

def simd_efficiency(scale=1):
    """Per benchmark: average fraction of vector lanes active per issue.

    1.0 means perfectly convergent warps; control-flow divergence (VecGCD,
    SPMV's irregular rows, MotionEst's window clipping) lowers it.
    """
    runs = run_suite("cheri_opt", scale=scale)
    rows = []
    for name in BENCHMARK_NAMES:
        stats = runs[name].stats
        lanes = runs[name].config.num_lanes
        efficiency = stats.thread_instrs / (stats.instrs_issued * lanes)
        rows.append((name, efficiency))
    return rows


# ---------------------------------------------------------------------------
# Table 3 / Figure 7: synthesis results and CheriCapLib costs
# ---------------------------------------------------------------------------

def table3_synthesis():
    """The three Table 3 rows from the area model."""
    return [report.row() for report in table3_rows()]


def fig7_caplib_costs():
    """Figure 7's function/ALM table."""
    from repro.area.model import caplib_function_costs
    return caplib_function_costs()


# ---------------------------------------------------------------------------
# Headline summary (the abstract's numbers)
# ---------------------------------------------------------------------------

def headline_summary(scale=1):
    """The four headline claims, measured on this reproduction."""
    exec_overhead = fig13_execution_overhead(scale=scale)["geomean"]
    bc_overhead = fig14_boundscheck_overhead(scale=scale)["geomean"]
    rows = table3_rows()
    base, cheri, opt = rows
    area_reduction = 1.0 - (opt.alms - base.alms) / (cheri.alms - base.alms)
    # Register-file storage overhead of optimised CHERI, paper geometry.
    from repro.area.model import storage_bits
    base_cfg = paper_geometry(SMConfig.baseline)
    opt_cfg = paper_geometry(SMConfig.cheri_optimised)
    base_bits = storage_bits(base_cfg)
    opt_bits = storage_bits(opt_cfg)
    base_rf = base_bits["gp_vrf"] + base_bits["gp_srf"]
    rf_overhead = opt_bits["meta_rf"] / base_rf
    return {
        "execution_overhead": exec_overhead,
        "boundscheck_overhead": bc_overhead,
        "area_overhead_reduction": area_reduction,
        "rf_storage_overhead": rf_overhead,
        "rf_storage_overhead_halved_srf": rf_overhead / 2,
    }


# ---------------------------------------------------------------------------
# Ablations (beyond the paper): each section-3 technique off in turn
# ---------------------------------------------------------------------------

def ablations(scale=1):
    """Run-time and hardware deltas of each ablation (:mod:`.ablations`)."""
    return {"runtime": runtime_ablation(scale=scale),
            "hardware": hardware_ablation()}


# ---------------------------------------------------------------------------
# The optimizer's software bounds-check gap: boundscheck mode, -O0 vs -O1
# ---------------------------------------------------------------------------

#: Geometry and scale of the gap's cells.  Each cell simulates fresh with
#: a :class:`repro.obs.BoundsCheckCounter` attached (outside the runner's
#: caches), so the cells are small.
OPT_GAP_WARPS = 4
OPT_GAP_LANES = 4
OPT_GAP_SCALE = 1


def _opt_gap_cell(bench, opt):
    from repro.nocl import NoCLRuntime
    from repro.obs import BoundsCheckCounter, attach, detach
    config = SMConfig.baseline(num_warps=OPT_GAP_WARPS,
                               num_lanes=OPT_GAP_LANES, opt=opt)
    rt = NoCLRuntime("boundscheck", config=config)
    counter = BoundsCheckCounter()
    attach(rt.sm, counter)
    try:
        bench.run(rt, scale=OPT_GAP_SCALE)
    finally:
        detach(rt.sm)
    stats = rt.stats
    reports = {program.name: program.opt_report
               for program in rt._compiled.values()
               if program.opt_report is not None}
    return {
        "thread_instrs": stats.thread_instrs,
        "cycles": stats.cycles,
        "checks_executed": counter.checks_executed,
        "static_check_sites": counter.static_sites,
        "opt_reports": reports or None,
    }


def _pct(old, new):
    return 100.0 * (new - old) / old if old else 0.0


def opt_boundscheck_gap():
    """Per benchmark in ``boundscheck`` mode: dynamic per-thread
    instructions, dynamic bounds checks (guard retires x lanes) and cycles
    at -O0 and -O1, their relative deltas, and each kernel's -O1
    optimizer pass report."""
    rows = []
    for name, bench in ALL_BENCHMARKS.items():
        o0 = _opt_gap_cell(bench, 0)
        o1 = _opt_gap_cell(bench, 1)
        rows.append({
            "benchmark": name,
            "o0": {k: v for k, v in o0.items() if k != "opt_reports"},
            "o1": {k: v for k, v in o1.items() if k != "opt_reports"},
            "opt_reports": o1["opt_reports"],
            "delta_pct": {key: round(_pct(o0[key], o1[key]), 3)
                          for key in ("thread_instrs", "cycles",
                                      "checks_executed")},
        })
    reduced = sum(1 for row in rows
                  if row["o1"]["checks_executed"]
                  < row["o0"]["checks_executed"])
    return {
        "mode": "boundscheck",
        "geometry": {"num_warps": OPT_GAP_WARPS,
                     "num_lanes": OPT_GAP_LANES},
        "scale": OPT_GAP_SCALE,
        "benchmarks_with_fewer_dynamic_checks": reduced,
        "benchmarks_total": len(rows),
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Per-benchmark counters of the artifact's three configurations (.bench)
# ---------------------------------------------------------------------------

def bench_counters(config_name, scale=1):
    """The counters the paper artifact's ``sweep.py bench`` records for
    each benchmark under one of Baseline / CHERI / CHERI (Optimised)."""
    runs = run_suite(config_name, scale=scale)
    return [{"benchmark": name,
             "cycles": runs[name].stats.cycles,
             "instrs": runs[name].stats.instrs_issued,
             "ipc": runs[name].stats.ipc,
             "dram_bytes": runs[name].stats.dram_total_bytes}
            for name in BENCHMARK_NAMES]


# ---------------------------------------------------------------------------
# The checked-in artifacts: results/<stem>.*
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Artifact:
    """How one file stem under ``results/`` is produced.

    ``compute()`` returns the plain data and ``render(data)`` its text.
    A ``.txt`` artifact also writes the data as ``<stem>.json``; the
    ``.bench`` files keep the artifact's plain counter format alone.
    """

    compute: Callable
    render: Callable
    suffix: str = ".txt"


ARTIFACTS = {
    "fig6_cheri_instr_freq": Artifact(fig6_cheri_instruction_frequency,
                                      report.render_fig6),
    "fig7_caplib_costs": Artifact(fig7_caplib_costs, report.render_fig7),
    "fig10_vrf_occupancy": Artifact(fig10_vrf_residency,
                                    report.render_fig10),
    "fig11_cap_registers": Artifact(fig11_capability_registers,
                                    report.render_fig11),
    "fig12_dram_traffic": Artifact(fig12_dram_traffic, report.render_fig12),
    "fig13_exec_overhead": Artifact(fig13_execution_overhead,
                                    report.render_fig13),
    "fig14_rust_overhead": Artifact(fig14_boundscheck_overhead,
                                    report.render_fig14),
    "table2_rf_compression": Artifact(table2_rf_compression,
                                      report.render_table2),
    "table3_synthesis": Artifact(table3_synthesis, report.render_table3),
    "headline_claims": Artifact(headline_summary, report.render_headline),
    "ablations": Artifact(ablations, render_ablation),
    "simd_efficiency": Artifact(simd_efficiency,
                                report.render_simd_efficiency),
    "value_regularity": Artifact(value_regularity,
                                 report.render_value_regularity),
    "opt_boundscheck_gap": Artifact(opt_boundscheck_gap,
                                    report.render_opt_gap),
    "baseline": Artifact(partial(bench_counters, "baseline"),
                         report.render_bench, ".bench"),
    "cheri": Artifact(partial(bench_counters, "cheri"),
                      report.render_bench, ".bench"),
    "cheri_opt": Artifact(partial(bench_counters, "cheri_opt"),
                          report.render_bench, ".bench"),
}


def write_artifact(stem):
    """Compute and write one artifact; returns (text, written paths).

    Files land in ``repro.RESULTS_DIR``, read at call time.
    """
    import repro
    artifact = ARTIFACTS[stem]
    data = artifact.compute()
    text = artifact.render(data)
    os.makedirs(repro.RESULTS_DIR, exist_ok=True)
    path = os.path.join(repro.RESULTS_DIR, stem + artifact.suffix)
    with open(path, "w") as stream:
        stream.write(text + "\n")
    paths = [path]
    if artifact.suffix == ".txt":
        paths.append(report.write_structured(repro.RESULTS_DIR, stem, data))
    return text, paths
