"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list``                      — the Table 1 benchmark suite
- ``run BENCH``                 — run one benchmark (verified) and print stats
- ``listing BENCH``             — print a benchmark kernel's compiled assembly
- ``trace BENCH``               — run with instruction tracing
- ``results [NAME...]``         — regenerate the artifacts under results/
- ``bench``                     — run the suite, report wall-clock + cycles
- ``profile BENCH``             — cycle-attributed hotspot profile
- ``diff A.json B.json``        — compare two run manifests
- ``fuzz``                      — differential fuzzing vs the golden model
- ``lockstep [BENCH...]``       — benchmarks under golden-model lockstep
- ``serve``                     — async simulation service (TCP + NDJSON)
- ``submit [BENCH...]``         — submit a grid to a running server
- ``jobs``                      — server job table / stats / drain
- ``result ID``                 — fetch one job's result from the server
- ``top``                       — live dashboard for a running serve node

``run``/``bench`` accept ``--json`` for machine-readable output; every
``bench``/``run_suite`` invocation also writes a structured run manifest
(see ``repro.obs.manifest``).
"""

import argparse
import sys

from repro.benchsuite import ALL_BENCHMARKS, BENCHMARK_NAMES


def _add_mode_args(parser):
    parser.add_argument("--mode", default="baseline",
                        choices=("baseline", "purecap", "boundscheck"))
    parser.add_argument("--warps", type=int, default=8)
    parser.add_argument("--lanes", type=int, default=8)
    parser.add_argument("--scale", type=int, default=1)
    _add_backend_arg(parser)
    _add_opt_arg(parser)


def _add_opt_arg(parser, default=0):
    parser.add_argument("--opt", type=int, default=default, choices=(0, 1),
                        help="kernel-compiler optimization level (0: direct "
                             "frontend output, 1: dataflow pass pipeline; "
                             "default %(default)s)")


def _add_backend_arg(parser):
    from repro.simt.backend import BACKEND_NAMES
    parser.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                        help="execution backend (default: vector; both "
                             "are bit-identical)")


def _runtime(args):
    from repro.nocl import NoCLRuntime
    from repro.simt import SMConfig
    geometry = dict(num_warps=args.warps, num_lanes=args.lanes,
                    opt=getattr(args, "opt", 0))
    if getattr(args, "backend", None):
        geometry["backend"] = args.backend
    if args.mode == "purecap":
        config = SMConfig.cheri_optimised(**geometry)
    else:
        config = SMConfig.baseline(**geometry)
    return NoCLRuntime(args.mode, config=config)


def cmd_list(_args):
    print("%-12s %-45s %s" % ("name", "description", "origin"))
    for bench in ALL_BENCHMARKS.values():
        print("%-12s %-45s %s" % (bench.name, bench.description,
                                  bench.origin))
    return 0


def _resolve_benchmark(name):
    """Benchmark lookup by name, case-insensitively (CLI convenience)."""
    if name in ALL_BENCHMARKS:
        return ALL_BENCHMARKS[name]
    folded = {key.lower(): key for key in ALL_BENCHMARKS}
    if name.lower() in folded:
        return ALL_BENCHMARKS[folded[name.lower()]]
    raise SystemExit("unknown benchmark %r (choose from %s)"
                     % (name, ", ".join(BENCHMARK_NAMES)))


def cmd_run(args):
    bench = ALL_BENCHMARKS[args.benchmark]
    rt = _runtime(args)
    stats = bench.run(rt, scale=args.scale)
    if args.json:
        import json
        print(json.dumps({
            "benchmark": bench.name, "mode": args.mode,
            "scale": args.scale, "opt": args.opt,
            "geometry": {"num_warps": args.warps, "num_lanes": args.lanes},
            "stats": stats.as_dict(),
        }, indent=1, sort_keys=True))
        return 0
    print("%s [%s -O%d] PASSED self test" % (bench.name, args.mode,
                                             args.opt))
    print("  cycles=%d instrs=%d IPC=%.2f" % (stats.cycles,
                                              stats.instrs_issued,
                                              stats.ipc))
    print("  DRAM: %d bytes (%d spill)" % (stats.dram_total_bytes,
                                           stats.dram_spill_bytes))
    if args.mode == "purecap":
        print("  capability registers/thread: %d of 32"
              % stats.cap_regs_per_thread)
    return 0


def cmd_listing(args):
    from repro.eval.runner import kernel_sources
    from repro.nocl.compiler import compile_kernel
    for source in kernel_sources(args.benchmark).values():
        compiled = compile_kernel(source, args.mode, opt=args.opt)
        print("== %s [%s -O%d], %d instructions =="
              % (source.name, args.mode, args.opt, len(compiled.instrs)))
        if compiled.opt_report and compiled.opt_report.get("passes"):
            print("-- opt: %s" % _render_opt_report(compiled.opt_report))
        print(compiled.listing())
        print()
    return 0


def _render_opt_report(report):
    """One-line summary of a kernel's ``repro.nocl.opt`` pass report."""
    passes = ", ".join("%s:%d" % (name, count)
                       for name, count in report.get("passes", {}).items())
    text = "%d -> %d items (%s)" % (report.get("items_before", 0),
                                    report.get("items_after", 0),
                                    passes or "no changes")
    removed = (report.get("bounds_dominated", 0)
               + report.get("bounds_range_proved", 0))
    if removed:
        text += ", %d bounds check(s) removed (%d dominated, %d proved)" % (
            removed, report.get("bounds_dominated", 0),
            report.get("bounds_range_proved", 0))
    return text


def cmd_trace(args):
    from repro.eval.tracing import TraceRecorder
    from repro.obs import attach
    bench = ALL_BENCHMARKS[args.benchmark]
    rt = _runtime(args)
    recorder = TraceRecorder(limit=args.limit, only_warp=args.warp,
                             num_lanes=rt.sm.cfg.num_lanes)
    attach(rt.sm, recorder)
    bench.run(rt, scale=args.scale)
    print(recorder.render())
    return 0


def cmd_results(args):
    from repro.eval.experiments import ARTIFACTS, write_artifact
    unknown = [name for name in args.names if name not in ARTIFACTS]
    if unknown:
        print("unknown artifact(s) %s (choose from %s)"
              % (", ".join(unknown), ", ".join(ARTIFACTS)), file=sys.stderr)
        return 2
    for name in args.names or ARTIFACTS:
        text, paths = write_artifact(name)
        print(text)
        print("wrote %s\n" % ", ".join(paths))
    return 0


def cmd_profile(args):
    """Cycle-attributed profile of one benchmark (nvprof-style)."""
    from repro.eval import runner
    from repro.nocl import NoCLRuntime
    from repro.obs import ProfileCollector, TimelineCollector, attach, detach
    bench = _resolve_benchmark(args.benchmark)
    overrides = {}
    if args.warps is not None:
        overrides["num_warps"] = args.warps
    if args.lanes is not None:
        overrides["num_lanes"] = args.lanes
    if args.backend is not None:
        overrides["backend"] = args.backend
    overrides["opt"] = args.opt
    mode, config = runner.config_for(args.config, **overrides)
    rt = NoCLRuntime(mode, config=config)
    profiler = ProfileCollector()
    sinks = [profiler]
    timeline = None
    if args.perfetto is not None:
        timeline = TimelineCollector()
        sinks.append(timeline)
    attach(rt.sm, *sinks)
    try:
        stats = bench.run(rt, scale=args.scale)
    finally:
        detach(rt.sm)
    opt_reports = {program.name: program.opt_report
                   for program in rt._compiled.values()
                   if program.opt_report is not None}
    if args.json:
        import json
        payload = {
            "benchmark": bench.name, "config": args.config, "mode": mode,
            "scale": args.scale, "opt": args.opt, "cycles": stats.cycles,
            "profile": profiler.as_dict(),
        }
        if opt_reports:
            payload["opt_reports"] = opt_reports
        print(json.dumps(payload, indent=1, sort_keys=True))
    elif args.pc:
        print(profiler.render_pc(stats, limit=args.limit or 40))
    elif args.per_warp:
        print(profiler.render_warps())
    elif args.timeline:
        print(profiler.render_timeline())
    else:
        print("%s [%s] cycle profile by source line"
              % (bench.name, args.config))
        print(profiler.render_source(stats, limit=args.limit))
    if opt_reports and not args.json:
        for name, report in sorted(opt_reports.items()):
            print("opt[-O%d] %s: %s"
                  % (args.opt, name, _render_opt_report(report)))
    if timeline is not None:
        path = args.perfetto
        if path == "":
            import os
            os.makedirs("results", exist_ok=True)
            path = "results/%s_%s.perfetto.json" % (bench.name.lower(),
                                                    args.config)
        timeline.export(path)
        print("perfetto trace written to %s (load at https://ui.perfetto.dev)"
              % path)
    return 0


def cmd_fuzz(args):
    kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip()) \
        if args.kinds else None
    opt_levels = (0, 1) if args.opt is None else (args.opt,)
    if args.jobs and args.jobs > 1:
        from repro.check.fuzz import run_fuzz_parallel
        report = run_fuzz_parallel(seed=args.seed, budget=args.budget,
                                   jobs=args.jobs,
                                   time_budget=args.time_budget,
                                   out_dir=args.out, verbose=args.verbose,
                                   log=print, backend=args.backend,
                                   kinds=kinds, opt_levels=opt_levels)
    else:
        from repro.check.fuzz import run_fuzz
        report = run_fuzz(seed=args.seed, budget=args.budget,
                          time_budget=args.time_budget, out_dir=args.out,
                          verbose=args.verbose, log=print,
                          backend=args.backend, kinds=kinds,
                          opt_levels=opt_levels)
    print(report.summary())
    return 0 if report.ok else 1


def cmd_lockstep(args):
    from repro.check.lockstep import run_lockstep_sweep
    names = [_resolve_benchmark(name).name
             for name in (args.benchmarks or list(BENCHMARK_NAMES))]
    failures = run_lockstep_sweep(names, args.configs, scale=args.scale,
                                  jobs=args.jobs, log=print,
                                  backend=args.backend, opt=args.opt)
    return 1 if failures else 0


def cmd_diff(args):
    from repro.obs import manifest as mf
    try:
        old = mf.load_manifest(args.old)
        new = mf.load_manifest(args.new)
    except (OSError, ValueError) as exc:
        print("diff: %s" % exc, file=sys.stderr)
        return 2
    rows = mf.diff_manifests(old, new, threshold=args.threshold)
    print("manifest diff: %s (%s -O%d) -> %s (%s -O%d), threshold %.1f%%"
          % (args.old, old.get("config", "?"), mf.manifest_opt(old),
             args.new, new.get("config", "?"), mf.manifest_opt(new),
             100 * args.threshold))
    print(mf.render_diff(rows, old_label="old", new_label="new",
                         verbose=args.verbose))
    alerts = mf.manifest_failure_alerts([(args.old, old), (args.new, new)])
    if alerts:
        print("manifest write failures:")
        for line in alerts:
            print("  " + line)
    return 1 if any(row["regressed"] for row in rows) else 0


def cmd_bench(args):
    import time

    from repro.eval import runner
    if args.no_cache:
        runner.set_disk_cache(False)
    config_names = args.configs or ["cheri_opt"]
    for config_name in config_names:
        if config_name not in BENCH_CONFIGS:
            print("unknown configuration %r (choose from %s)"
                  % (config_name, ", ".join(BENCH_CONFIGS)), file=sys.stderr)
            return 2
    overrides = {}
    if args.warps is not None:
        overrides["num_warps"] = args.warps
    if args.lanes is not None:
        overrides["num_lanes"] = args.lanes
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.opt:
        overrides["opt"] = args.opt
    total_start = time.perf_counter()
    if args.json:
        import json
        payload = {"configs": {}, "scale": args.scale}
        for config_name in config_names:
            start = time.perf_counter()
            results = runner.run_suite(config_name, scale=args.scale,
                                       jobs=args.jobs, **overrides)
            payload["configs"][config_name] = {
                "wall_seconds": round(time.perf_counter() - start, 6),
                "benchmarks": {
                    name: {
                        "cycles": result.stats.cycles,
                        "instrs_issued": result.stats.instrs_issued,
                        "ipc": round(result.stats.ipc, 6),
                        "dram_total_bytes": result.stats.dram_total_bytes,
                        "cache_source": (result.meta.source if result.meta
                                         else "memo"),
                        "sim_seconds": round(
                            result.meta.wall_seconds, 6) if result.meta
                        else 0.0,
                    }
                    for name, result in results.items()
                },
            }
        payload["wall_seconds"] = round(time.perf_counter() - total_start, 6)
        payload["runner_counters"] = runner.RUNNER_STATS.snapshot()
        print(json.dumps(payload, indent=1, sort_keys=True))
        return 0
    for config_name in config_names:
        start = time.perf_counter()
        results = runner.run_suite(config_name, scale=args.scale,
                                   jobs=args.jobs, **overrides)
        wall = time.perf_counter() - start
        print("== %s (scale=%d): %.2fs wall ==" % (config_name, args.scale,
                                                   wall))
        print("%-12s %12s %10s %9s  %s" % ("benchmark", "cycles", "instrs",
                                           "sim s", "source"))
        for name, result in results.items():
            meta = result.meta
            print("%-12s %12d %10d %9.3f  %s"
                  % (name, result.stats.cycles, result.stats.instrs_issued,
                     meta.wall_seconds if meta else 0.0,
                     meta.source if meta else "memo"))
        print()
    counters = runner.RUNNER_STATS.snapshot()
    print("total %.2fs wall | cache: %d memo, %d disk, %d simulated "
          "(%.2fs simulating)"
          % (time.perf_counter() - total_start, counters["memo_hits"],
             counters["disk_hits"], counters["misses"],
             counters["sim_seconds"]))
    print("disk cache: %s%s" % (runner.cache_dir(),
                                " (disabled)" if args.no_cache else ""))
    return 0


def cmd_serve(args):
    from repro.serve.server import serve_main
    return serve_main(host=args.host, port=args.port, workers=args.workers,
                      max_pending=args.max_pending,
                      job_timeout=args.job_timeout,
                      max_retries=args.retries, verbose=args.verbose,
                      metrics_interval=args.metrics_interval)


def cmd_top(args):
    from repro.serve.top import run_top
    from repro.serve.client import default_port
    port = args.port if args.port is not None else default_port()
    return run_top(args.host, port, interval=args.interval,
                   iterations=args.iterations, once=args.once)


def _client(args):
    from repro.serve.client import ServeClient
    return ServeClient(host=args.host, port=args.port)


def _print_event(message):
    name = message.get("event", "?")
    label = message.get("label", "")
    if name == "progress":
        print("  progress: %d/%d done" % (message.get("done", 0),
                                          message.get("total", 0)))
    elif name == "grid_done":
        print("grid %s complete: %d job(s), %d failed"
              % (message.get("grid"), message.get("jobs", 0),
                 message.get("failed", 0)))
    elif name in ("done", "cached"):
        payload = message.get("payload") or {}
        stats = payload.get("stats") or {}
        detail = ""
        if "cycles" in stats:
            detail = "  cycles=%d source=%s" % (
                stats["cycles"], payload.get("cache_source", "?"))
        print("  %-8s %-10s %s%s" % (name, message.get("id", ""),
                                     label, detail))
    else:
        extra = ""
        if message.get("error"):
            extra = "  (%s)" % message["error"]
        if name == "retry":
            extra = "  (attempt %s of %s)" % (message.get("attempt"),
                                              message.get("of"))
        print("  %-8s %-10s %s%s" % (name, message.get("id", ""),
                                     label, extra))


def cmd_submit(args):
    import json

    from repro.serve.client import ServeError
    benchmarks = ([_resolve_benchmark(name).name for name in args.benchmarks]
                  if args.benchmarks else None)
    overrides = {}
    if args.warps is not None:
        overrides["num_warps"] = args.warps
    if args.lanes is not None:
        overrides["num_lanes"] = args.lanes
    if args.opt:
        overrides["opt"] = args.opt
    body = dict(benchmarks=benchmarks, configs=args.configs or None,
                scale=args.scale, overrides=overrides, verify=args.verify)
    if args.scales:
        body["scales"] = args.scales
    try:
        with _client(args) as client:
            if args.no_follow:
                reply = client.submit(**body)
                if args.json:
                    print(json.dumps(reply, indent=1, sort_keys=True))
                else:
                    print("grid %s: %d job(s) submitted"
                          % (reply["grid"], len(reply["jobs"])))
                    for job in reply["jobs"]:
                        print("  %-10s %-9s %s" % (job["id"], job["state"],
                                                   job["label"]))
                return 0
            failed = 0
            for message in client.submit_and_stream(**body):
                if "event" not in message:      # the submission reply
                    if not args.json:
                        print("grid %s: %d job(s)"
                              % (message["grid"], len(message["jobs"])))
                    continue
                if args.json:
                    print(json.dumps(message, sort_keys=True))
                else:
                    _print_event(message)
                if message.get("event") == "grid_done":
                    failed = message.get("failed", 0)
            return 1 if failed else 0
    except (ServeError, OSError) as exc:
        print("submit: %s" % exc, file=sys.stderr)
        return 2


def cmd_jobs(args):
    import json

    from repro.serve.client import ServeError
    try:
        with _client(args) as client:
            if args.drain:
                reply = client.drain()
                stats = reply.get("stats", {})
                print("server drained: %d executed, %d cache hit(s), "
                      "%d dedup hit(s)%s"
                      % (stats.get("executed", 0),
                         stats.get("cache_hits", 0),
                         stats.get("dedup_hits", 0)
                         + stats.get("memo_hits", 0),
                         ", manifest %s" % reply["manifest"]
                         if reply.get("manifest") else ""))
                return 0
            if args.stats:
                reply = client.stats()
                if args.json:
                    print(json.dumps(reply, indent=1, sort_keys=True))
                    return 0
                stats = reply["stats"]
                for key in sorted(stats):
                    print("  %-24s %s" % (key, stats[key]))
                print("  workers:")
                for worker in reply.get("workers", []):
                    print("    #%d pid=%s alive=%s job=%s done=%d"
                          % (worker["worker_id"], worker["pid"],
                             worker["alive"], worker["job"] or "-",
                             worker["jobs_done"]))
                return 0
            reply = client.jobs()
            if args.json:
                print(json.dumps(reply, indent=1, sort_keys=True))
                return 0
            jobs = reply["jobs"]
            if not jobs:
                print("(no jobs)")
                return 0
            print("%-10s %-9s %-4s %8s  %s"
                  % ("id", "state", "try", "wall s", "label"))
            for job in jobs:
                print("%-10s %-9s %-4d %8s  %s"
                      % (job["id"], job["state"], job["attempts"] + 1,
                         "%.3f" % job["wall_seconds"]
                         if "wall_seconds" in job else "-",
                         job["label"]))
            return 0
    except (ServeError, OSError) as exc:
        print("jobs: %s" % exc, file=sys.stderr)
        return 2


def cmd_result(args):
    import json

    from repro.serve.client import ServeError
    try:
        with _client(args) as client:
            reply = client.result(args.id, wait=not args.no_wait,
                                  timeout=args.timeout)
            job = reply["job"]
            if args.json:
                print(json.dumps(job, indent=1, sort_keys=True))
                return 0 if job["state"] in ("done", "cached") else 1
            print("%s  %s  [%s]" % (job["id"], job["label"], job["state"]))
            if job.get("error"):
                print("  error: %s" % job["error"])
            payload = job.get("payload") or {}
            stats = payload.get("stats") or {}
            if stats:
                print("  cycles=%d instrs=%d dram=%d bytes (source=%s)"
                      % (stats.get("cycles", 0),
                         stats.get("instrs_issued", 0),
                         stats.get("dram_total_bytes", 0),
                         payload.get("cache_source", "?")))
            if payload.get("lockstep"):
                lockstep = payload["lockstep"]
                print("  lockstep: %d retire events, %d instructions"
                      % (lockstep.get("retired", 0),
                         lockstep.get("instructions", 0)))
            return 0 if job["state"] in ("done", "cached") else 1
    except (ServeError, OSError) as exc:
        print("result: %s" % exc, file=sys.stderr)
        return 2


BENCH_CONFIGS = ("baseline", "cheri", "cheri_opt", "boundscheck",
                 "cheri_opt_no_nvo", "cheri_opt_split_vrf",
                 "cheri_opt_dual_port_srf", "cheri_opt_lane_bounds",
                 "cheri_opt_dynamic_pcc")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CHERI-SIMT reproduction: benchmarks and experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite")

    run = sub.add_parser("run", help="run one benchmark")
    run.add_argument("benchmark", choices=BENCHMARK_NAMES)
    run.add_argument("--json", action="store_true",
                     help="print full stats as JSON")
    _add_mode_args(run)

    listing = sub.add_parser("listing", help="print compiled assembly")
    listing.add_argument("benchmark", choices=BENCHMARK_NAMES)
    listing.add_argument("--mode", default="purecap",
                         choices=("baseline", "purecap", "boundscheck"))
    _add_opt_arg(listing)

    trace = sub.add_parser("trace", help="run with instruction tracing")
    trace.add_argument("benchmark", choices=BENCHMARK_NAMES)
    trace.add_argument("--limit", type=int, default=200)
    trace.add_argument("--warp", type=int, default=0)
    _add_mode_args(trace)

    results = sub.add_parser(
        "results", help="regenerate the checked-in artifacts under results/")
    results.add_argument("names", nargs="*", metavar="NAME",
                         help="artifact file stems (default: all)")

    bench = sub.add_parser(
        "bench", help="run the benchmark suite and report wall-clock")
    bench.add_argument("configs", nargs="*", metavar="CONFIG",
                       help="configurations to run, from: %s "
                            "(default: cheri_opt)" % ", ".join(BENCH_CONFIGS))
    bench.add_argument("--jobs", type=int, default=None,
                       help="worker processes (default: cpu count)")
    bench.add_argument("--scale", type=int, default=1,
                       help="problem-size multiplier")
    bench.add_argument("--no-cache", action="store_true",
                       help="bypass the persistent disk cache")
    bench.add_argument("--json", action="store_true",
                       help="machine-readable per-benchmark results")
    bench.add_argument("--warps", type=int, default=None,
                       help="override the evaluation warp count")
    bench.add_argument("--lanes", type=int, default=None,
                       help="override the evaluation lane count")
    _add_backend_arg(bench)
    _add_opt_arg(bench)

    profile = sub.add_parser(
        "profile",
        help="cycle-attributed hotspot profile (per source line or PC)")
    profile.add_argument("benchmark", metavar="BENCH",
                         help="benchmark name (case-insensitive), one of: %s"
                              % ", ".join(BENCHMARK_NAMES))
    profile.add_argument("--config", default="cheri_opt",
                         choices=BENCH_CONFIGS,
                         help="evaluation configuration (default: cheri_opt)")
    view = profile.add_mutually_exclusive_group()
    view.add_argument("--source", action="store_true",
                      help="attribute cycles to DSL source lines (default)")
    view.add_argument("--pc", action="store_true",
                      help="attribute cycles to instruction PCs")
    view.add_argument("--per-warp", action="store_true",
                      help="per-warp occupancy and stall-cause breakdown")
    view.add_argument("--timeline", action="store_true",
                      help="coarse issue/stall activity strip over time")
    profile.add_argument("--json", action="store_true",
                         help="dump the whole profile as JSON")
    profile.add_argument("--perfetto", nargs="?", const="", default=None,
                         metavar="OUT.json",
                         help="also export a Perfetto/Chrome trace (default "
                              "path: results/<bench>_<config>.perfetto.json)")
    profile.add_argument("--limit", type=int, default=None,
                         help="show at most N rows")
    profile.add_argument("--scale", type=int, default=1)
    profile.add_argument("--warps", type=int, default=None,
                         help="override the evaluation warp count")
    profile.add_argument("--lanes", type=int, default=None,
                         help="override the evaluation lane count")
    _add_backend_arg(profile)
    _add_opt_arg(profile)

    diff = sub.add_parser(
        "diff", help="compare two run manifests, flag metric regressions")
    diff.add_argument("old", help="baseline manifest JSON")
    diff.add_argument("new", help="candidate manifest JSON")
    diff.add_argument("--threshold", type=float, default=0.02,
                      help="relative growth tolerated before a "
                           "higher-is-worse metric counts as regressed "
                           "(default: 0.02)")
    diff.add_argument("--verbose", action="store_true",
                      help="also show unchanged metrics")

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzzing against the golden-model "
                     "interpreter (see repro.check)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="fuzz-run seed; every case is reconstructible "
                           "from (seed, index)")
    fuzz.add_argument("--budget", type=int, default=200,
                      help="number of cases to run (default: 200)")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="stop after this many seconds instead")
    fuzz.add_argument("--out", default="results/fuzz",
                      help="directory for shrunk reproducer files "
                           "(default: results/fuzz)")
    fuzz.add_argument("--verbose", action="store_true",
                      help="log every case, not just failures")
    fuzz.add_argument("--jobs", type=int, default=None,
                      help="shard the budget across N worker processes "
                           "with deterministic per-shard sub-seeds")
    fuzz.add_argument("--kinds", default=None, metavar="KIND[,KIND...]",
                      help="bias the run to these schedule kinds (e.g. "
                           "'branchy' for a divergence soak); other "
                           "rotation slots are skipped, case identities "
                           "are unchanged")
    fuzz.add_argument("--opt", type=int, default=None, choices=(0, 1),
                      help="run generated kernels at this single compiler "
                           "opt level only (default: differential O0 vs O1,"
                           " cross-checked bit-for-bit)")
    _add_backend_arg(fuzz)

    lockstep = sub.add_parser(
        "lockstep", help="run benchmarks with the golden-model lockstep "
                         "checker attached")
    lockstep.add_argument("benchmarks", nargs="*", metavar="BENCH",
                          help="benchmarks to check (default: all)")
    lockstep.add_argument("--configs", nargs="*",
                          default=["baseline", "cheri_opt", "boundscheck"],
                          choices=BENCH_CONFIGS,
                          help="configurations to check under")
    lockstep.add_argument("--scale", type=int, default=1)
    lockstep.add_argument("--jobs", type=int, default=None,
                          help="run the benchmark x config sweep across N "
                               "worker processes (default: serial)")
    _add_backend_arg(lockstep)
    _add_opt_arg(lockstep)

    from repro.serve.protocol import DEFAULT_PORT

    def _add_client_args(sub_parser):
        sub_parser.add_argument("--host", default="127.0.0.1")
        sub_parser.add_argument("--port", type=int, default=None,
                                help="server port (default: "
                                     "$REPRO_SERVE_PORT or %d)"
                                     % DEFAULT_PORT)

    serve = sub.add_parser(
        "serve", help="run the asynchronous simulation service")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help="TCP port (0 picks a free one; default: %d)"
                            % DEFAULT_PORT)
    serve.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: cpu count - 1)")
    serve.add_argument("--max-pending", type=int, default=256,
                       help="bounded admission queue: max non-terminal "
                            "jobs (default: 256)")
    serve.add_argument("--job-timeout", type=float, default=300.0,
                       help="per-job wall-clock timeout in seconds "
                            "(default: 300)")
    serve.add_argument("--retries", type=int, default=1,
                       help="crash retries per job (default: 1)")
    serve.add_argument("--verbose", action="store_true",
                       help="log scheduling decisions")
    serve.add_argument("--metrics-interval", type=float, default=30.0,
                       metavar="SECONDS",
                       help="cadence of the NDJSON metrics time-series "
                            "written next to the manifests (<= 0 "
                            "disables; default: 30)")

    top = sub.add_parser(
        "top", help="live dashboard for a running serve node")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh cadence in seconds (default: 1)")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after N frames (default: until ctrl-c)")
    top.add_argument("--once", action="store_true",
                     help="print a single frame without cursor control "
                          "and exit (scriptable health check)")
    _add_client_args(top)

    submit = sub.add_parser(
        "submit", help="submit a benchmark x config grid to the server")
    submit.add_argument("benchmarks", nargs="*", metavar="BENCH",
                        help="benchmarks (case-insensitive; default: all)")
    submit.add_argument("--configs", nargs="*", default=None,
                        choices=BENCH_CONFIGS,
                        help="configurations (default: cheri_opt)")
    submit.add_argument("--scale", type=int, default=1)
    submit.add_argument("--scales", nargs="*", type=int, default=None,
                        help="several scales (overrides --scale)")
    submit.add_argument("--warps", type=int, default=None,
                        help="override the evaluation warp count")
    submit.add_argument("--lanes", type=int, default=None,
                        help="override the evaluation lane count")
    _add_opt_arg(submit)
    submit.add_argument("--verify", action="store_true",
                        help="run each job under golden-model lockstep")
    submit.add_argument("--no-follow", action="store_true",
                        help="submit and return without streaming events")
    submit.add_argument("--json", action="store_true",
                        help="print raw NDJSON replies/events")
    _add_client_args(submit)

    jobs = sub.add_parser(
        "jobs", help="job table / server stats / drain")
    jobs.add_argument("--stats", action="store_true",
                      help="server metrics + worker table instead")
    jobs.add_argument("--drain", action="store_true",
                      help="drain in-flight jobs and stop the server")
    jobs.add_argument("--json", action="store_true")
    _add_client_args(jobs)

    result = sub.add_parser(
        "result", help="fetch one job's result from the server")
    result.add_argument("id", help="job id (jNNNNNN) or content key")
    result.add_argument("--no-wait", action="store_true",
                        help="return immediately even if not finished")
    result.add_argument("--timeout", type=float, default=None,
                        help="max seconds to wait")
    result.add_argument("--json", action="store_true")
    _add_client_args(result)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "list": cmd_list,
        "run": cmd_run,
        "listing": cmd_listing,
        "trace": cmd_trace,
        "results": cmd_results,
        "bench": cmd_bench,
        "profile": cmd_profile,
        "diff": cmd_diff,
        "fuzz": cmd_fuzz,
        "lockstep": cmd_lockstep,
        "serve": cmd_serve,
        "submit": cmd_submit,
        "jobs": cmd_jobs,
        "result": cmd_result,
        "top": cmd_top,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager that quit early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
