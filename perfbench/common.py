"""Helpers shared by the benchmark's workloads."""

import hashlib
import json
import math
import os
import resource
import statistics
import time

HERE = os.path.dirname(os.path.abspath(__file__))
#: Root of the checkout: the benchmark builds and runs the program here.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Highest percentile reported for latencies, when the sample allows it.
TAIL_PERCENTILE = 95
#: A tail percentile is only reported with this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

#: CPU seconds one calibration slice takes on the reference host (two
#: cores of an Intel Xeon, Python 3.11, numpy 2.4) when it is quiet.
#: Host times are reported at this speed (see ``at_reference``).
REFERENCE_SLICE_S = 0.05
#: A stretch of timed work is scaled by the slices within this many
#: positions of it: wide enough to average the slices' own jitter,
#: narrow enough to follow the host's speed from second to second.
SLICE_WINDOW = 3
#: The simulator's time moves with the slices' time to this power: the
#: least-squares slope of log benchmark time on log slice time was
#: 0.65-0.95 across the benchmarks on the reference host (the slice's
#: tight loop feels a busy host more than the simulator does).
SPEED_EXPONENT = 0.8


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


class _Warp:
    __slots__ = ("pc", "regs")

    def __init__(self, pc):
        self.pc = pc
        self.regs = [0] * 32


def _step(warp, table, i):
    op = table.get(warp.pc & 255, 0)
    regs = warp.regs
    regs[op & 31] = (regs[(op >> 5) & 31] + op + i) & 0xFFFFFFFF
    warp.pc = (warp.pc + 1 + (regs[op & 31] & 3)) & 0xFFFF
    return regs[op & 31]


def calibration_slice():
    """Run a fixed reference loop once; returns its (CPU, wall) seconds.

    The loop does the kind of work the simulator does (attribute and
    dict lookups, small-integer arithmetic, calls, and small numpy
    arrays) but uses no repository code, so no change to the program
    can change its cost: only the host's speed can.  On the shared
    reference host that speed moves by ±30% from one second to the
    next; timing the same slice between stretches of benchmark work
    measures it.
    """
    import numpy as np
    table = {k: (k * 2654435761) & 0xFFFF for k in range(256)}
    warps = [_Warp(pc) for pc in range(32)]
    lanes = np.arange(8, dtype=np.int64)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    acc = 0
    for _ in range(10):
        for i in range(4000):
            acc ^= _step(warps[i & 31], table, i)
        vector = lanes.copy()
        for i in range(1500):
            vector = (vector * 3 + lanes) & 0xFFFF
            if int(vector[i & 7]) > 60000:
                vector >>= 1
    return time.process_time() - cpu0, time.perf_counter() - wall0


def speed_factors(slices, count):
    """Scale factors to reference speed for ``count`` stretches of work,
    stretch ``i`` having run between ``slices[i]`` and ``slices[i + 1]``
    (CPU seconds of each calibration slice; ``count + 1`` of them)."""
    factors = []
    for i in range(count):
        window = slices[max(0, i + 1 - SLICE_WINDOW):i + 1 + SLICE_WINDOW]
        factors.append(at_reference(window))
    return factors


def at_reference(slices):
    """Factor that scales host time measured among ``slices`` (their CPU
    seconds) to the reference host's speed."""
    return (REFERENCE_SLICE_S / statistics.mean(slices)) ** SPEED_EXPONENT


def stats_digest(stats_dict):
    """Stable digest of one run's ``SMStats.as_dict()``."""
    text = json.dumps(stats_dict, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """``(value, percentile)``: p95, or the highest percentile that still
    has ``TAIL_SAMPLES_BEYOND`` samples beyond it (nearest rank), but
    never below the median."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0
    rank = math.ceil(TAIL_PERCENTILE * n / 100.0 - 1e-9)
    if n - rank < TAIL_SAMPLES_BEYOND:
        rank = n - TAIL_SAMPLES_BEYOND
    if 2 * rank <= n:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], min(TAIL_PERCENTILE, 100.0 * rank / n)


def peak_rss_mb():
    """Max RSS of this process and of its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def tree_cpu_seconds(root_pid):
    """User+system CPU seconds of ``root_pid`` and its live descendants."""
    parents, cpu = {}, {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as stream:
                text = stream.read()
        except OSError:
            continue  # exited while we looked
        fields = text[text.rindex(")") + 2:].split()
        pid = int(entry)
        parents[pid] = int(fields[1])
        cpu[pid] = int(fields[11]) + int(fields[12])
    tree, frontier = {root_pid}, [root_pid]
    while frontier:
        parent = frontier.pop()
        for pid, ppid in parents.items():
            if ppid == parent and pid not in tree:
                tree.add(pid)
                frontier.append(pid)
    ticks = sum(cpu.get(pid, 0) for pid in tree)
    return ticks / os.sysconf("SC_CLK_TCK")


#: Stall counters of ``SMStats`` (each stalled cycle costs an issue slot).
_STALLS = ("stall_csc_operand", "stall_shared_vrf", "stall_bank_conflict",
           "stall_atomic_serial")


def sim_layer_metrics(stats_dicts, num_lanes, arch_vector_regs):
    """Simulated per-layer counts summed over ``SMStats.as_dict()`` runs.

    Deterministic: these repeat exactly for the same inputs and model.
    """
    def total(key):
        return sum(stats[key] for stats in stats_dicts)

    def ratio(num, den):
        return num / den if den else 0.0

    instrs = total("instrs_issued")
    thread_instrs = total("thread_instrs")
    tag_lookups = total("tag_cache_hits") + total("tag_cache_misses")
    return {
        "simt.instrs_issued": instrs,
        "simt.thread_instrs": thread_instrs,
        "simt.simd_efficiency": ratio(thread_instrs, instrs * num_lanes),
        "simt.stall_cycles": sum(total(key) for key in _STALLS),
        "simt.barrier_waits": total("barrier_waits"),
        "simt.sfu_requests": total("sfu_requests"),
        "regfile.gp_compressed_frac": ratio(
            total("gp_writes_uniform") + total("gp_writes_affine"),
            total("gp_writes_total")),
        "regfile.meta_uniform_frac": ratio(total("meta_writes_uniform"),
                                           total("meta_writes_total")),
        "regfile.spills": total("gp_spills") + total("meta_spills"),
        "regfile.vrf_residency": ratio(
            total("gp_vrf_occupancy_integral"),
            total("cycles") * arch_vector_regs),
        "memory.dram_bytes": total("dram_total_bytes"),
        "memory.dram_txns": total("dram_txns"),
        "memory.spill_bytes": total("dram_spill_bytes"),
        "memory.tag_bytes": total("dram_tag_bytes"),
        "memory.tag_hit_ratio": ratio(total("tag_cache_hits"), tag_lookups),
        "memory.tag_lookups": tag_lookups,
        "memory.scratchpad_conflict_cycles":
            total("scratchpad_conflict_cycles"),
    }


def child_env(work):
    """Environment for a simulator process: isolated cache, manifest and
    temp directories under ``work``, the default backend (any
    ``REPRO_BACKEND`` is cleared) and the sources on the import path."""
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    env["PYTHONPATH"] = SRC
    env["REPRO_SIMCACHE_DIR"] = os.path.join(work, "simcache")
    env["REPRO_MANIFEST_DIR"] = os.path.join(work, "manifests")
    env["TMPDIR"] = work
    return env
