"""The paper's evaluation claims, checked over the checked-in artifacts.

``python -m repro results`` writes every table and figure of section 4
as ``results/<stem>.json`` beside its text table; each ``check_<stem>``
below reads those rows and asserts the shape the paper reports (who
wins, by roughly how much, where the outliers are).  They do no
simulation: CI regenerates ``results/`` and fails on any byte of drift,
so checking the checked-in rows checks the simulator.
"""

import json
import os
import subprocess

import pytest

import repro
from repro.area.model import MULTIPLIER_ALMS
from repro.cheri import concentrate
from repro.eval.experiments import ARTIFACTS


def load(stem):
    with open(os.path.join(repro.RESULTS_DIR, stem + ".json")) as stream:
        return json.load(stream)


def check_fig6_cheri_instr_freq(series):
    freq = dict(series)
    # Shape checks against the paper's histogram: capability loads/stores
    # and pointer arithmetic dominate; get/set-bounds are rare (that is
    # what justifies the SFU slow path).
    assert freq, "CHERI instructions must execute under purecap"
    hot = {"CLW", "CSW", "CINCOFFSET", "CINCOFFSETIMM", "CLB", "CLBU"}
    hottest = series[0][0]
    assert hottest in hot
    bounds_ops = sum(freq.get(name, 0.0)
                     for name in ("CSETBOUNDS", "CSETBOUNDSIMM",
                                  "CSETBOUNDSEXACT", "CGETBASE", "CGETLEN"))
    assert bounds_ops < 0.01, "bounds manipulation must be off the hot path"
    # CSC (store capability) is infrequent -- the premise of the
    # one-read-port metadata SRF (paper reports about 2%).
    assert freq.get("CSC", 0.0) < 0.05


def check_fig7_caplib_costs(costs):
    # The headline relation of Figure 7: checking an access against
    # partially-decompressed bounds is far cheaper than decompressing
    # (getBase/getTop) and comparing.
    assert costs["isAccessInBounds"] < costs["getBase"] + costs["getTop"]
    # setBounds is the expensive one - the motivation for the SFU slow path.
    assert costs["setBounds"] == max(costs.values())
    # The whole fast path costs less than one 32-bit multiplier.
    fast_path = (costs["fromMem"] + costs["toMem"] + costs["setAddr"]
                 + costs["isAccessInBounds"])
    assert fast_path < MULTIPLIER_ALMS


def check_fig10_vrf_occupancy(rows):
    by_name = {row["benchmark"]: row for row in rows}
    # Capability metadata is far more compressible than data: with the
    # NVO, essentially no benchmark except BlkStencil keeps metadata in
    # the VRF (paper section 4.3).
    for row in rows:
        if row["benchmark"] == "BlkStencil":
            continue
        assert row["meta_nvo"] <= 0.02, row
    # BlkStencil's pointer select creates genuine metadata divergence.
    assert by_name["BlkStencil"]["meta_nvo"] > 0.0
    # The NVO only ever helps.
    for row in rows:
        assert row["meta_nvo"] <= row["meta_no_nvo"] + 1e-9, row
    # Data registers are much less compressible than metadata overall.
    mean_gp = sum(r["gp"] for r in rows) / len(rows)
    mean_meta = sum(r["meta_nvo"] for r in rows) / len(rows)
    assert mean_meta < mean_gp


def check_fig11_cap_registers(series):
    # The paper's key observation: no benchmark uses more than half of the
    # 32 registers to hold capabilities, so a half-size metadata SRF is
    # enough (7% storage overhead instead of 14%).
    for name, count in series:
        assert 0 < count <= 16, (name, count)


def check_fig12_dram_traffic(rows):
    # The paper's finding: CHERI does not significantly affect DRAM
    # bandwidth usage (inlined kernels, tag cache hierarchical zeroes,
    # compressed metadata avoiding spills).
    for row in rows:
        assert 0.9 <= row["ratio"] <= 1.25, row
    mean_ratio = sum(r["ratio"] for r in rows) / len(rows)
    assert mean_ratio < 1.1


def check_fig13_exec_overhead(data):
    rows, mean = data["rows"], data["geomean"]
    overheads = dict(rows)
    # Headline result: small single-digit geomean overhead (paper: 1.6%).
    assert -0.02 <= mean <= 0.08, mean
    # Every benchmark individually stays low...
    for name, overhead in rows:
        assert overhead < 0.25, (name, overhead)
    # ...and BlkStencil is the outlier (metadata divergence + CSC stalls).
    worst = max(overheads, key=overheads.get)
    assert worst == "BlkStencil" or overheads["BlkStencil"] >= mean, \
        overheads


def check_fig14_rust_overhead(data):
    mean = data["geomean"]
    # The paper's comparison: software bounds checking is expensive in
    # low-level GPU code (34% geomean for checks alone) - an order of
    # magnitude above CHERI's hardware-enforced 1.6%.
    assert mean > 0.10, mean
    cheri_mean = load("fig13_exec_overhead")["geomean"]
    assert mean > 4 * max(cheri_mean, 0.005), (mean, cheri_mean)


def check_table2_rf_compression(rows):
    half, three_eighths, quarter, eighth, sixteenth = rows
    # Storage shrinks with the VRF fraction; the paper's 3/8 point saves
    # roughly half of the register-file storage (ratio ~0.45).
    assert half["storage_kb"] > three_eighths["storage_kb"] > \
        quarter["storage_kb"] > eighth["storage_kb"]
    assert 0.35 < three_eighths["compress_ratio"] < 0.55
    # The crossover shape: generous VRFs are essentially free...
    assert half["cycle_overhead"] < 0.02
    assert three_eighths["cycle_overhead"] < 0.02
    assert quarter["cycle_overhead"] < 0.03
    # ...then a cliff appears once live uncompressible vectors no longer
    # fit: spill traffic floods DRAM and cycles climb (the paper's 1/4
    # row; here at 1/16 because this compiler's register pressure is
    # lower than Clang 13's).
    assert sixteenth["cycle_overhead"] > quarter["cycle_overhead"]
    assert sixteenth["mem_access_overhead"] > 0.10
    assert sixteenth["mem_access_overhead"] > \
        three_eighths["mem_access_overhead"]


def check_table3_synthesis(rows):
    (b_name, b_alms, _, b_bram, b_fmax), \
        (c_name, c_alms, _, c_bram, c_fmax), \
        (o_name, o_alms, _, o_bram, o_fmax) = rows
    # Area ordering and the ~44% overhead reduction.
    assert b_alms < o_alms < c_alms
    reduction = 1.0 - (o_alms - b_alms) / (c_alms - b_alms)
    assert 0.40 <= reduction <= 0.48, reduction
    # The optimised per-lane overhead is comparable to (but slightly
    # larger than) one 32-bit multiplier (567 ALMs) per vector lane.
    per_lane = (o_alms - b_alms) / 32
    assert MULTIPLIER_ALMS < per_lane < 2 * MULTIPLIER_ALMS
    # The BRAM overhead is largely eliminated by metadata compression:
    # unoptimised CHERI roughly doubles storage; optimised adds ~10%.
    assert c_bram > 1.8 * b_bram
    assert o_bram < 1.15 * b_bram
    # Fmax essentially unchanged.
    assert abs(c_fmax - b_fmax) <= 2 and abs(o_fmax - b_fmax) <= 2


def check_headline_claims(summary):
    assert 0.08 <= summary["rf_storage_overhead"] <= 0.20
    assert 0.40 <= summary["area_overhead_reduction"] <= 0.48
    assert summary["execution_overhead"] < 0.08
    assert summary["boundscheck_overhead"] > 0.10


def check_ablations(data):
    runtime_rows, hardware_rows = data["runtime"], data["hardware"]
    # --- hardware deltas (paper-geometry area model) ----------------------
    # Moving bounds logic back into every lane costs hundreds of ALMs per
    # lane (Figure 7's setBounds alone is 287).
    assert hardware_rows["lane_bounds"]["alms_delta"] > 32 * 400
    # Dynamic PC metadata restores per-warp PCC comparators and per-thread
    # PCC storage.
    assert hardware_rows["dynamic_pcc"]["alms_delta"] > 0
    assert hardware_rows["dynamic_pcc"]["storage_delta_kb"] > 0
    # A private metadata VRF duplicates slot storage the shared VRF avoids.
    assert hardware_rows["split_vrf"]["storage_delta_kb"] > 0
    # A dual-ported metadata SRF doubles its SRAM.
    assert hardware_rows["dual_port_srf"]["storage_delta_kb"] > 0
    # Dropping compression entirely is the big one: back to ~double RF
    # storage (the 103% overhead the paper starts from).
    assert hardware_rows["no_metadata_compression"]["storage_delta_kb"] > 1500
    # --- runtime deltas ------------------------------------------------------
    # None of the hardware-saving techniques costs meaningful performance:
    # that is the paper's whole argument.  Each ablation's speed effect is
    # within a small band around zero.
    for name, row in runtime_rows.items():
        assert abs(row["overhead"]) < 0.05, (name, row["overhead"])
    # The SFU slow path can only *help* the ablated design (per-lane bounds
    # logic has no serialisation), so lane_bounds must not be slower than
    # the SFU design by more than noise.
    assert runtime_rows["lane_bounds"]["overhead"] < 0.02


def check_simd_efficiency(rows):
    eff = dict(rows)
    # Structured, convergent kernels run essentially full warps.
    for name in ("VecAdd", "Transpose", "MatMul", "Histogram"):
        assert eff[name] > 0.9, (name, eff[name])
    # Divergent kernels measurably waste lanes.
    assert eff["VecGCD"] < 0.9
    assert eff["VecGCD"] < eff["VecAdd"]
    # Everything still does useful work.
    for name, value in rows:
        assert value > 0.3, (name, value)


def check_value_regularity(rows):
    # Section 2.2's premise: SIMT workloads write many uniform/affine
    # vectors (Collange et al.: ~15% uniform, ~28% affine), and
    # capability metadata is dramatically more regular than data.
    for row in rows:
        data_regular = row["gp_uniform"] + row["gp_affine"]
        meta_regular = row["meta_uniform"] + row["meta_partial_null"]
        # Substantial data regularity (the premise of compression);
        # MotionEst is the least regular at ~18%.
        assert data_regular > 0.15, row
        # ...and metadata nearly total regularity (the paper's key claim).
        assert meta_regular > 0.95, row
        assert meta_regular >= data_regular - 1e-9, row
    mean_uniform = sum(r["gp_uniform"] for r in rows) / len(rows)
    # Same ballpark as Collange et al.'s 15% uniform writes.
    assert 0.05 < mean_uniform < 0.9


def check_opt_boundscheck_gap(summary):
    # -O1's bounds-check elimination removes dynamic checks somewhere.
    assert summary["benchmarks_with_fewer_dynamic_checks"] > 0


CLAIMS = {
    "fig6_cheri_instr_freq": check_fig6_cheri_instr_freq,
    "fig7_caplib_costs": check_fig7_caplib_costs,
    "fig10_vrf_occupancy": check_fig10_vrf_occupancy,
    "fig11_cap_registers": check_fig11_cap_registers,
    "fig12_dram_traffic": check_fig12_dram_traffic,
    "fig13_exec_overhead": check_fig13_exec_overhead,
    "fig14_rust_overhead": check_fig14_rust_overhead,
    "table2_rf_compression": check_table2_rf_compression,
    "table3_synthesis": check_table3_synthesis,
    "headline_claims": check_headline_claims,
    "ablations": check_ablations,
    "simd_efficiency": check_simd_efficiency,
    "value_regularity": check_value_regularity,
    "opt_boundscheck_gap": check_opt_boundscheck_gap,
}


@pytest.mark.parametrize("stem", sorted(CLAIMS))
def test_paper_claim(stem):
    CLAIMS[stem](load(stem))


def test_caplib_functional_spot_checks():
    # Figure 7's functions exist and behave: one call of each
    # CheriCapLib equivalent.
    bounds, exact, base, top = concentrate.encode_bounds(0x1000, 0x2000)
    assert exact
    assert concentrate.decode_bounds(bounds, 0x1000) == (base, top)
    assert concentrate.is_representable(bounds, 0x1000, 0x1ff0)
    assert concentrate.crrl(0x1001) >= 0x1001
    assert concentrate.crml(0x1001) != 0


def test_claim_check_rejects_perturbed_row():
    data = load("fig13_exec_overhead")
    data["geomean"] = 0.09
    with pytest.raises(AssertionError):
        check_fig13_exec_overhead(data)


def test_every_checked_in_artifact_has_a_producer():
    # The stems of the tracked files under results/ are exactly the
    # registry's: nothing checked in lacks a producer, nothing produced
    # goes unchecked-in.
    root = os.path.dirname(repro.RESULTS_DIR)
    try:
        listed = subprocess.run(
            ["git", "ls-files", "--", "results"], cwd=root, check=True,
            capture_output=True, text=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    stems = {os.path.splitext(os.path.basename(path))[0]
             for path in listed
             if path.endswith((".txt", ".json", ".bench"))}
    assert stems == set(ARTIFACTS)
