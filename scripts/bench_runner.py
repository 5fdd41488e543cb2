"""Measure runner wall-clock and write the BENCH_runner.json trajectory.

Measures, in this order:

1. ``cold_serial``   — ``run_suite("cheri_opt", scale=1, jobs=1)`` with the
   memo empty and the disk cache bypassed: pure simulation speed.
2. ``cold_parallel`` — the same suite from a fresh memo with the default
   job count (``os.cpu_count()``), disk cache still bypassed.
3. ``warm_disk``     — the same suite from a fresh memo with the disk
   cache enabled and populated by a prior run.
4. ``warm_memo``     — the same suite again in-process (memo hits only).

Results append to ``BENCH_runner.json`` in the repository root so the
performance trajectory of the simulator survives across commits.

Each record carries the execution backend, the NumPy version (the
vector backend's wide-SM path uses it) and a per-benchmark breakdown of
the cold serial phase, so regressions can be attributed.  Records are
always appended; a corrupt history file is preserved as ``.bak`` rather
than silently discarded.

Usage::

    PYTHONPATH=src python scripts/bench_runner.py [--config cheri_opt]
        [--scale 1] [--backend vector] [--label "short description"]
"""

import argparse
import json
import os
import subprocess
import sys
import time

from repro.simt.backend import BACKEND_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_PATH = os.path.join(ROOT, "BENCH_runner.json")


def _git_rev():
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, check=True).stdout.strip()
    except Exception:
        return None


def _cpu_model():
    """The CPU model string (``/proc/cpuinfo`` where available)."""
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def host_provenance(numpy_version=None):
    """Where a record was measured: wall-clock numbers are only
    comparable across records from the same host, so the trend report
    (``repro obs report``) groups on this."""
    import platform
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python_version": platform.python_version(),
        "numpy_version": numpy_version,
        "platform": platform.system(),
        "machine": platform.machine(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", default="cheri_opt")
    parser.add_argument("--scale", type=int, default=1)
    parser.add_argument("--backend", default=None,
                        choices=BACKEND_NAMES,
                        help="execution backend (default: the SMConfig "
                             "default)")
    parser.add_argument("--label", default=None,
                        help="free-form note stored with the record")
    args = parser.parse_args(argv)

    from repro.eval import runner

    overrides = {} if args.backend is None else {"backend": args.backend}
    _, config = runner.config_for(args.config, **overrides)
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None

    record = {
        "config": args.config,
        "scale": args.scale,
        "backend": config.backend,
        "numpy_version": numpy_version,
        "git_rev": _git_rev(),
        "cpu_count": os.cpu_count(),
        "host": host_provenance(numpy_version),
        "label": args.label,
    }

    # 1. cold serial: simulation speed only.
    runner.set_disk_cache(False)
    runner.clear_cache()
    runner.RUNNER_STATS.reset()
    start = time.perf_counter()
    results = runner.run_suite(args.config, scale=args.scale, jobs=1,
                               **overrides)
    record["cold_serial_seconds"] = round(time.perf_counter() - start, 3)
    record["cold_serial_breakdown"] = {
        name: round(result.meta.wall_seconds if result.meta else 0.0, 3)
        for name, result in results.items()}

    # 2. cold parallel (default job count; on a 1-CPU box this simply
    # repeats the serial path).
    runner.clear_cache()
    runner.RUNNER_STATS.reset()
    start = time.perf_counter()
    runner.run_suite(args.config, scale=args.scale, **overrides)
    record["cold_parallel_seconds"] = round(time.perf_counter() - start, 3)

    # 3. warm disk: populate, then read back from a fresh memo.
    runner.set_disk_cache(True)
    runner.clear_cache()
    runner.run_suite(args.config, scale=args.scale, jobs=1, **overrides)
    runner.clear_cache()
    runner.RUNNER_STATS.reset()
    start = time.perf_counter()
    runner.run_suite(args.config, scale=args.scale, **overrides)
    record["warm_disk_seconds"] = round(time.perf_counter() - start, 3)
    record["warm_disk_counters"] = runner.RUNNER_STATS.snapshot()

    # 4. warm memo.
    start = time.perf_counter()
    runner.run_suite(args.config, scale=args.scale, **overrides)
    record["warm_memo_seconds"] = round(time.perf_counter() - start, 3)

    history = []
    if os.path.exists(OUT_PATH):
        try:
            with open(OUT_PATH) as stream:
                history = json.load(stream)
            if not isinstance(history, list):
                raise ValueError("history is not a list")
        except (OSError, ValueError) as exc:
            # Never clobber an unreadable trajectory: keep the evidence
            # and start a fresh history alongside it.
            backup = OUT_PATH + ".bak"
            try:
                os.replace(OUT_PATH, backup)
                print("warning: %s was unreadable (%s); moved to %s"
                      % (OUT_PATH, exc, backup), file=sys.stderr)
            except OSError:
                pass
            history = []
    history.append(record)
    with open(OUT_PATH, "w") as stream:
        json.dump(history, stream, indent=2)
        stream.write("\n")
    print(json.dumps(record, indent=2))
    print("appended to", OUT_PATH)
    return 0


if __name__ == "__main__":
    sys.exit(main())
