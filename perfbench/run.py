#!/usr/bin/env python3
"""The repository benchmark: cold CHERI and baseline suites, and mixed
service traffic, timed end to end and layer by layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload suite-cheri --seed 1 --seconds 24
    python3 perfbench/run.py --workload serve-mixed --seed 7 --trace 1
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (a separate, instrumented run).  ``--workload all``
runs the three workloads one after another, each in its own process,
and adds the Figure 13 accuracy line.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  See README.md beside this file.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

T_START = time.monotonic()

from common import ROOT, SRC, BenchError, median  # noqa: E402

WORKLOADS = ("suite-cheri", "suite-baseline", "serve-mixed")

#: Per-run scratch space inside the checkout (removed when a run ends).
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

#: The paper's geomean CHERI execution-time overhead (Figure 13).
PAPER_FIG13_GEOMEAN = 1.6
FIG13_RESULTS = os.path.join(ROOT, "results", "fig13_exec_overhead.txt")


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(args):
    """Run one workload in this process; returns its result dict."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=args.workload + "-", dir=WORK_ROOT)
    try:
        if args.workload == "serve-mixed":
            import serve_mixed
            return serve_mixed.run(args.seed, args.seconds, bool(args.trace),
                                   work, T_START)
        import suite
        return suite.run(args.workload, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still uses it


def metric_table(trace):
    """(name, unit) of every metric ``BENCHMARK.json`` lists for
    the end-to-end (``trace`` false) or the per-layer run.  A layer that
    a workload does not exercise reads 0 there."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    return [(metric["name"], metric["unit"])
            for metric in spec["per_layer" if trace else "end_to_end"]]


def report(args, result):
    """Human-readable lines, then the JSON result as the last line."""
    table = metric_table(args.trace)
    if args.trace:
        values = result["layers"]
    else:
        # One run's value of a metric is the median of its repeats.
        values = {name: median(samples)
                  for name, samples in result["samples"].items()}
    unknown = set(values) - {name for name, _ in table}
    if unknown:
        raise BenchError("unlisted metrics: %s" % ", ".join(sorted(unknown)))
    print("workload %s  seed %d  seconds %d  trace %d  backend %s  "
          "processes %d" % (args.workload, args.seed, args.seconds,
                            args.trace, result["backend"], result["repeats"]))
    metrics = {}
    for name, unit in table:
        value = values.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
        print("  %-34s %16.6g %s" % (name, value, unit))
    if not args.trace:
        print("  %-34s %16.6g %s   (%d of %d operations failed)"
              % ("error_rate", result["failed"] / result["attempted"],
                 "ratio", result["failed"], result["attempted"]))
        notes = result["notes"]
        print("  job_p95_ms is p%g over %d samples"
              % (notes["job_tail_pct"], notes["job_samples"]))
        for line in notes["lines"]:
            print("  " + line)
    for problem in result["problems"][:20]:
        print("  FAILED: %s" % problem)
    if result.get("cycles"):
        print("per-benchmark cycles: %s" % json.dumps(result["cycles"]))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


def run_all(args):
    """Every workload in its own process, then the accuracy line."""
    results, cycles = {}, {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            raise BenchError("workload %s exited with %d"
                             % (workload, done.returncode))
        lines = done.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1])
        for line in lines:
            if line.startswith("per-benchmark cycles: "):
                cycles[workload] = json.loads(line.split(": ", 1)[1])
    if "suite-cheri" in cycles and "suite-baseline" in cycles:
        print_accuracy(cycles["suite-cheri"], cycles["suite-baseline"])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {"%s/%s" % (workload, name): metric
                    for workload, r in results.items()
                    for name, metric in r["metrics"].items()}}))


def print_accuracy(cheri, baseline):
    """Figure 13: simulated cycle overhead of cheri_opt over baseline."""
    print("Figure 13 accuracy: simulated cycle overhead of suite-cheri "
          "(cheri_opt) over suite-baseline")
    product = 1.0
    for name in cheri:
        overhead = cheri[name] / baseline[name] - 1.0
        product *= 1.0 + overhead
        print("  %-12s %+6.1f%%" % (name, 100.0 * overhead))
    geomean = 100.0 * (product ** (1.0 / len(cheri)) - 1.0)
    checked_in = "n/a"
    if os.path.exists(FIG13_RESULTS):
        with open(FIG13_RESULTS) as stream:
            for line in stream:
                if line.split()[:1] == ["geomean"]:
                    checked_in = line.split()[1]
    print("  geomean      %+6.1f%%   paper (FPGA hardware) %+.1f%%   "
          "results/fig13_exec_overhead.txt %s"
          % (geomean, PAPER_FIG13_GEOMEAN, checked_in))
    print("  This compares the model with the paper's published figure; "
          "there is no hardware reference here, so the model is "
          "unvalidated against hardware.")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program sources under %s" % SRC,
              file=sys.stderr)
        return 2
    # The benchmark measures the default backend.
    os.environ.pop("REPRO_BACKEND", None)
    sys.path.insert(0, SRC)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            report(args, run_workload(args))
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
