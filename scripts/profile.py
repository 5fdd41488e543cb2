"""cProfile harness for the simulator hot path.

Runs one benchmark/configuration under cProfile (bypassing every result
cache, so the simulation really executes) and prints the top cumulative
hot spots.  This is the tool that motivated the pipeline's decode-cached
dispatch and the register files' incremental occupancy counters; keep
using it before and after touching the issue loop.

Usage::

    PYTHONPATH=src python scripts/profile.py [BENCH] [CONFIG] [--top N]
    PYTHONPATH=src python scripts/profile.py --suite [CONFIG] [--top N]

Defaults: MatMul under cheri_opt, top 20 by cumulative time; ``--suite``
alone profiles the cheri_opt suite.
"""

import argparse
import os
import sys

# This file shadows the stdlib ``profile`` module (which cProfile imports)
# when scripts/ leads sys.path; drop that entry before importing cProfile.
_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path = [p for p in sys.path
            if os.path.abspath(p or os.getcwd()) != _HERE]
sys.modules.pop("profile", None)

import cProfile  # noqa: E402
import pstats  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmark", nargs="?")
    parser.add_argument("config", nargs="?")
    parser.add_argument("--top", type=int, default=20,
                        help="rows of the profile to print (default 20)")
    parser.add_argument("--suite", nargs="?", const="cheri_opt",
                        metavar="CONFIG",
                        help="profile the whole suite under CONFIG "
                             "(default cheri_opt) instead of one benchmark")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort key")
    parser.add_argument("--scale", type=int, default=1)
    args = parser.parse_args(argv)
    if args.suite and (args.benchmark or args.config):
        parser.error("--suite profiles the whole suite; name its config "
                     "as --suite CONFIG, not as a positional argument")
    benchmark = args.benchmark or "MatMul"
    config = args.config or "cheri_opt"

    from repro.eval import runner

    # Profile real simulation work, not cache lookups.
    runner.set_disk_cache(False)
    runner.clear_cache()

    if args.suite:
        target = "runner.run_suite(%r, scale=%d, jobs=1)" % (args.suite,
                                                             args.scale)
    else:
        target = "runner.run_benchmark(%r, %r, scale=%d)" % (
            benchmark, config, args.scale)
    print("profiling:", target)
    profiler = cProfile.Profile()
    profiler.enable()
    if args.suite:
        runner.run_suite(args.suite, scale=args.scale, jobs=1)
    else:
        runner.run_benchmark(benchmark, config, scale=args.scale)
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    stats.print_stats(args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
