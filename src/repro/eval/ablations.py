"""Ablation study: each section-3 technique switched off individually.

The paper's CHERI (Optimised) configuration bundles five techniques:
metadata-RF compression (+NVO), the shared VRF, the one-read-port metadata
SRF, the SFU slow path for bounds instructions, and the static-PC-metadata
restriction.  These drivers quantify what each contributes — in run time,
in on-chip storage, and in logic area — by disabling one at a time.
"""

from repro.area.model import logic_alms, paper_geometry, storage_bits
from repro.benchsuite import BENCHMARK_NAMES
from repro.eval.runner import geomean, run_suite
from repro.simt.config import SMConfig

#: ablation name -> (runner config name, description).
ABLATIONS = {
    "no_nvo": ("cheri_opt_no_nvo",
               "null-value optimisation off (section 3.2)"),
    "split_vrf": ("cheri_opt_split_vrf",
                  "private metadata VRF instead of the shared VRF"),
    "dual_port_srf": ("cheri_opt_dual_port_srf",
                      "two-read-port metadata SRF (no CSC stall)"),
    "lane_bounds": ("cheri_opt_lane_bounds",
                    "get/set-bounds per lane instead of in the SFU"),
    "dynamic_pcc": ("cheri_opt_dynamic_pcc",
                    "per-thread dynamic PC metadata"),
}


def runtime_ablation(scale=1):
    """Geomean cycle delta of each ablation vs the full optimised config.

    Returns {ablation: {"overhead": float, "per_benchmark": {...}}}.
    """
    full = run_suite("cheri_opt", scale=scale)
    out = {}
    for name, (config_name, description) in ABLATIONS.items():
        runs = run_suite(config_name, scale=scale)
        deltas = {}
        for bench in BENCHMARK_NAMES:
            deltas[bench] = (runs[bench].stats.cycles
                             / full[bench].stats.cycles) - 1.0
        out[name] = {
            "description": description,
            "overhead": geomean(list(deltas.values())),
            "per_benchmark": deltas,
        }
    return out


def hardware_ablation():
    """Area/storage cost of each ablation at the paper's geometry.

    Positive deltas mean the ablated design is *more* expensive than the
    full optimised configuration.
    """
    optimised = paper_geometry(SMConfig.cheri_optimised)
    base_alms = logic_alms(optimised)
    base_bits = storage_bits(optimised)["total"]
    variants = {
        "no_nvo": optimised.with_(nvo=False),
        "split_vrf": optimised.with_(shared_vrf=False),
        "dual_port_srf": optimised.with_(metadata_srf_single_port=False),
        "lane_bounds": optimised.with_(sfu_cheri_slow_path=False),
        "dynamic_pcc": optimised.with_(static_pc_metadata=False),
        "no_metadata_compression": optimised.with_(
            compress_metadata=False, shared_vrf=False, nvo=False,
            metadata_srf_single_port=False),
    }
    out = {}
    for name, config in variants.items():
        out[name] = {
            "alms_delta": logic_alms(config) - base_alms,
            "storage_delta_kb": (storage_bits(config)["total"]
                                 - base_bits) // 1024,
        }
    return out


def render_ablation(data):
    """Render :func:`repro.eval.experiments.ablations` output."""
    runtime_rows, hardware_rows = data["runtime"], data["hardware"]
    lines = ["Ablation study: CHERI (Optimised) minus one technique each",
             "  %-24s %12s %12s %14s" % ("ablation", "cycle ovh",
                                         "ALM delta", "storage (Kb)")]
    for name in ABLATIONS:
        runtime = runtime_rows[name]["overhead"]
        hw = hardware_rows[name]
        lines.append("  %-24s %+11.2f%% %+12d %+14d" % (
            name, 100 * runtime, hw["alms_delta"],
            hw["storage_delta_kb"]))
    unc = hardware_rows["no_metadata_compression"]
    lines.append("  %-24s %12s %+12d %+14d" % (
        "no_metadata_compression", "-", unc["alms_delta"],
        unc["storage_delta_kb"]))
    return "\n".join(lines)
