"""Workloads ``suite-cheri`` and ``suite-baseline``: cold serial suites.

Each repeat is a fresh process (``suite_child.py``) running
``run_suite(config, jobs=1)`` on an empty disk cache, so nothing is
warm and nothing is subtracted: compile, simulation, host-side
verification, the disk-cache store and the manifest are all inside the
timed region.  The suite inputs are fixed by the benchsuite's own
CRC32-of-name RNG, so the seed does not change them.
"""

import json
import math
import os
import subprocess
import sys
import time

from common import (
    HERE,
    REFERENCE_SLICE_S,
    ROOT,
    BenchError,
    at_reference,
    child_env,
    median,
    peak_rss_mb,
    speed_factors,
)

#: Evaluation configuration of each suite workload.
CONFIGS = {"suite-cheri": "cheri_opt", "suite-baseline": "baseline"}

#: Seconds budgeted per cold suite process (the reference host, two
#: cores, takes 4-9 s for cheri_opt and 3-6 s for baseline depending on
#: its load).  Sets how many repeats fill ``--seconds``; the count
#: depends only on ``--seconds``, so two commits always do equal work.
SECONDS_PER_SUITE = 5.0

#: A child that takes longer than this is stuck.
CHILD_TIMEOUT = 150


def repeats(seconds):
    return max(1, round(seconds / SECONDS_PER_SUITE))


def run_child(config, mode, work):
    os.makedirs(work)
    start = time.monotonic()
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "suite_child.py"),
             "--config", config, "--mode", mode],
            env=child_env(work), cwd=ROOT, stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError("suite child (%s, %s) exceeded %ds"
                         % (config, mode, CHILD_TIMEOUT))
    if done.returncode != 0:
        raise BenchError("suite child (%s, %s) exited with %d"
                         % (config, mode, done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError("suite child (%s, %s) printed nothing"
                         % (config, mode))
    child = json.loads(lines[-1])
    child["setup_s"] = child["t_ready"] - start
    child["mode"] = mode
    return child


class _Checker:
    """Counts attempted and failed benchmark runs across children.

    A run fails when its suite raised (verification mismatch or kernel
    abort: every benchmark of that suite counts as failed), or when its
    stats digest differs from the first complete run of the same
    benchmark.
    """

    def __init__(self, names):
        self.names = names
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, child):
        self.attempted += len(self.names)
        if child["error"] is not None:
            self.failed += len(self.names)
            self.problems.append(child["error"])
            return
        digests = {name: bench["digest"]
                   for name, bench in child["benchmarks"].items()}
        if self.reference is None:
            self.reference = digests
            return
        for name in self.names:
            if digests.get(name) != self.reference.get(name):
                self.failed += 1
                self.problems.append("%s: stats digest differs between "
                                     "repeats" % name)


def run(workload, seconds, trace, work):
    """Run one suite workload; returns the result dict for run.py."""
    config = CONFIGS[workload]
    count = repeats(seconds)
    if trace:
        # Alternate untraced (region probe only) and traced processes.
        modes = ["probe", "layers"] * max(1, round(count / 3))
    else:
        modes = ["plain"] * count
    children = [run_child(config, mode, os.path.join(work, "run%d" % i))
                for i, mode in enumerate(modes)]
    names = children[0]["names"]
    checker = _Checker(names)
    for child in children:
        checker.add(child)
    ok = [child for child in children if child["error"] is None]
    result = {
        "backend": children[0]["backend"],
        "repeats": len(children),
        "cycles": {name: bench["cycles"]
                   for name, bench in (ok or children)[0]["benchmarks"]
                   .items()},
    }
    if trace:
        result["layers"] = _layer_metrics(ok, checker, names)
    else:
        # Failed suites still report what they measured; ``correct`` and
        # ``failed`` say the outputs were wrong.
        result["samples"], result["notes"] = _end_to_end(ok or children,
                                                         checker)
    result["attempted"] = checker.attempted
    result["failed"] = checker.failed
    result["problems"] = checker.problems
    return result


def at_reference_speed(child):
    """One suite process's host times scaled to the reference host speed:
    each benchmark by the calibration slices around it, the rest of the
    suite (outside every benchmark) by all of them.  Returns
    ``(cpu_s, wall_s, {benchmark: wall_s})``."""
    benches = child["benchmarks"]
    slices = child["calibration"]
    factors = speed_factors(slices, len(benches))
    overall = at_reference(slices)
    walls = {}
    cpu = child["cpu_s"] - sum(b["cpu_s"] for b in benches.values())
    wall = child["wall_s"] - sum(b["wall_s"] for b in benches.values())
    cpu, wall = cpu * overall, wall * overall
    for factor, (name, bench) in zip(factors, benches.items()):
        walls[name] = bench["wall_s"] * factor
        cpu += bench["cpu_s"] * factor
        wall += walls[name]
    return cpu, wall, walls


def _end_to_end(children, checker):
    """Per-repeat samples of each metric (run.py takes their median), all
    host times at the reference speed.  Job latency: each benchmark's
    median wall time over the repeats, then the median and nearest-rank
    p95 over the 14 benchmarks (p95 is the slowest one)."""
    benches = children[0]["benchmarks"]
    instrs = sum(bench["instrs"] for bench in benches.values())
    scaled = [at_reference_speed(child) for child in children]
    jobs = sorted(median([walls[name] for _, _, walls in scaled]) * 1000.0
                  for name in benches)
    samples = {
        "setup_s": [child["setup_s"] * at_reference(child["calibration"])
                    for child in children],
        "cpu_s": [cpu for cpu, _, _ in scaled],
        "sim_kips": [instrs / cpu / 1e3 for cpu, _, _ in scaled],
        "sim_cycles": [sum(bench["cycles"] for bench in benches.values())],
        "job_p50_ms": [median(jobs)],
        "job_p95_ms": [jobs[math.ceil(0.95 * len(jobs)) - 1] if jobs
                       else 0.0],
        "jobs_per_s": [len(benches) / wall for _, wall, _ in scaled],
        "peak_rss_mb": [peak_rss_mb()],
        "success_rate": [1.0 - checker.failed / checker.attempted],
    }
    slices = [s for child in children for s in child["calibration"]]
    notes = {"job_samples": len(jobs), "job_tail_pct": 95, "lines": [
        "unscaled: cpu_s %.4g s (median of %d); calibration slice "
        "median %.2f ms, reference %.2f ms"
        % (median([child["cpu_s"] for child in children]), len(children),
           1000.0 * median(slices), 1000.0 * REFERENCE_SLICE_S)]}
    return samples, notes


def _layer_metrics(ok, checker, names):
    """Per-layer metrics from the traced children, checked against the
    untraced (region probe only) children: identical stats digests
    (checked by ``checker``) and identical compiled-region counts.
    Empty (every layer reads 0) unless both kinds completed."""
    probes = [child for child in ok if child["mode"] == "probe"]
    traced = [child for child in ok if child["mode"] == "layers"]
    if not probes or not traced:
        return {}
    reference = {name: probes[0]["benchmarks"][name]["regions"]
                 for name in names}
    for child in ok[1:]:
        for name in names:
            if child["benchmarks"][name]["regions"] != reference[name]:
                checker.failed += 1
                checker.problems.append(
                    "%s: %s compiled regions, untraced run formed %s"
                    % (name, child["benchmarks"][name]["regions"],
                       reference[name]))
    for child in traced:
        if not child["trace_consistent"]:
            checker.failed += len(names)
            checker.problems.append("layer self times do not sum to the "
                                    "traced total")

    def self_s(layer):
        return median([child["layers"].get(layer, {}).get("self_s", 0.0)
                       for child in traced])

    def calls(layer):
        return traced[0]["layers"].get(layer, {}).get("calls", 0)

    sim = traced[0]["sim"]
    runner = traced[0]["runner"]
    metrics = dict(sim)
    metrics.update({
        "nocl.compile_calls": calls("nocl.compile"),
        "nocl.compile_s": self_s("nocl.compile"),
        "nocl.static_instrs": traced[0]["static_instrs"],
        "benchsuite.host_s": self_s("benchsuite.run"),
        "runtime.upload_s": self_s("runtime.upload"),
        "runtime.download_s": self_s("runtime.download"),
        "runtime.launch_s": self_s("runtime.launch"),
        "simt.launches": calls("simt.launch"),
        "simt.launch_s": self_s("simt.launch"),
        "simt.run_s": self_s("simt.run"),
        "simt.ns_per_instr":
            self_s("simt.run") / max(1, sim["simt.instrs_issued"]) * 1e9,
        "simt.regions": sum(reference.values()),
        "regfile.write_calls": calls("regfile.write"),
        "regfile.write_s": self_s("regfile.write"),
        "cheri.decode_calls": calls("cheri.decode"),
        "cheri.decode_s": self_s("cheri.decode"),
        "cheri.set_bounds_calls": calls("cheri.set_bounds"),
        "cheri.set_bounds_s": self_s("cheri.set_bounds"),
        "runner.load_s": self_s("runner.load"),
        "runner.store_s": self_s("runner.store"),
        "runner.misses": runner["misses"],
        "runner.disk_hits": runner["disk_hits"],
        "runner.memo_hits": runner["memo_hits"],
        "obs.manifest_s": self_s("obs.manifest"),
        "suite.other_s": self_s("suite"),
        "job_samples": len(names),
        "job_tail_pct": 95,
        # Each traced process against the untraced one just before it,
        # so host drift between the two is as small as it can be.
        "trace.overhead_pct": 100.0 * median(
            [layers["cpu_s"] / probe["cpu_s"] - 1.0
             for probe, layers in zip(probes, traced)]),
    })
    return metrics
