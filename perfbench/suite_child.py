"""One cold ``run_suite(config, jobs=1)`` in a fresh process.

Spawned by ``run.py`` with an isolated, empty disk cache and manifest
directory, so every benchmark compiles, simulates, verifies and stores
its result exactly as on a first-time user's machine.  Prints one JSON
line with the timings, per-benchmark results and, when traced, the
layer totals.

Modes: ``plain`` (the end-to-end run) only times each benchmark, runs
a calibration slice before each one and after the suite (see
``common.calibration_slice``) and takes the slices' time out of its
timings; ``probe`` only counts
the compiled regions after each launch (the untraced side of a traced
pair); ``layers`` installs every layer wrapper of :mod:`layertrace`.
"""

import argparse
import json
import sys
import time

from common import calibration_slice, sim_layer_metrics, stats_digest

#: Most the traced root may fall short of the wall time measured around
#: it: the cost of entering and leaving one wrapper.
ROOT_SLACK_S = 0.005


def calibrate_between(runner, slices, timings):
    """Run a calibration slice before every benchmark of the suite and
    time each benchmark (CPU and wall seconds, slice excluded)."""
    run_benchmark = runner.run_benchmark

    def timed(name, *args, **kwargs):
        slices.append(calibration_slice())
        cpu0, wall0 = time.process_time(), time.perf_counter()
        result = run_benchmark(name, *args, **kwargs)
        timings[name] = (time.process_time() - cpu0,
                         time.perf_counter() - wall0)
        return result

    runner.run_benchmark = timed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--mode", choices=("plain", "probe", "layers"),
                        default="plain")
    args = parser.parse_args()

    from repro.benchsuite import BENCHMARK_NAMES
    from repro.benchsuite.base import VerificationError
    from repro.eval import runner
    from repro.simt.pipeline import KernelAbort

    trace, regions, slices, timings = None, {}, [], {}
    if args.mode == "plain":
        calibrate_between(runner, slices, timings)
    else:
        import layertrace
        trace = layertrace.LayerTrace()
        layertrace.instrument(trace, runner, "run_suite", regions,
                              layers=args.mode == "layers")
    _, config = runner.config_for(args.config)
    out = {"backend": config.backend, "names": list(BENCHMARK_NAMES),
           "error": None}

    out["t_ready"] = time.monotonic()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        results = runner.run_suite(args.config, jobs=1)
    except (VerificationError, KernelAbort) as exc:
        results = {}
        out["error"] = "%s: %s" % (type(exc).__name__, exc)
    # Calibration slices ran inside the timed region: take them out.
    out["cpu_s"] = time.process_time() - cpu0 - sum(cpu for cpu, _ in slices)
    out["wall_s"] = time.perf_counter() - wall0 - sum(w for _, w in slices)
    if slices:
        slices.append(calibration_slice())
    out["calibration"] = [cpu for cpu, _ in slices]

    stats = [result.stats.as_dict() for result in results.values()]
    out["benchmarks"] = {
        name: {"cycles": result.stats.cycles,
               "instrs": result.stats.instrs_issued,
               "cpu_s": timings.get(name, (0.0, 0.0))[0],
               "wall_s": timings.get(name, (0.0, 0.0))[1],
               "digest": stats_digest(stats_dict),
               "regions": regions.get(name)}
        for (name, result), stats_dict in zip(results.items(), stats)
    }
    out["sim"] = sim_layer_metrics(stats, config.num_lanes,
                                   config.arch_vector_regs)
    out["runner"] = runner.RUNNER_STATS.snapshot()
    if trace is not None:
        trace.restore()
        totals = trace.summary()
        root = totals.get("suite", {"total_s": 0.0})["total_s"]
        self_sum = sum(entry["self_s"] for entry in totals.values())
        out["layers"] = totals
        out["static_instrs"] = trace.static_instrs
        # Every wrapped call ran inside the root, self times add up to
        # the root's duration, and the root's duration is the suite's
        # wall time measured around it, less one wrapper's overhead.
        out["trace_consistent"] = (
            abs(self_sum - root) <= 1e-6 * max(root, 1.0)
            and abs(trace.outside_seconds() - root) <= 1e-9
            and 0.0 <= out["wall_s"] - root <= ROOT_SLACK_S)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
