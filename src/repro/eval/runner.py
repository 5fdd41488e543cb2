"""Benchmark runner: memoised, parallel, and disk-cached.

Three layers keep experiment turnaround short:

1. **In-process memo** — each (benchmark, mode, config, scale) simulation
   runs once per process; every experiment that needs it reuses the
   result.  The memo key includes the fully-resolved :class:`SMConfig`
   (which embodies ``EVAL_GEOMETRY`` plus any overrides) and the runtime
   mode, so editing the evaluation geometry or adding a config alias can
   never alias two different simulations.
2. **Parallel fan-out** — :func:`run_suite` distributes uncached runs
   across worker processes (``jobs=`` controls the width, defaulting to
   ``os.cpu_count()``); results are merged back into the memo.
3. **Persistent disk cache** — finished runs are pickled under
   ``results/.simcache/`` keyed by a content hash of the compiled kernel
   binaries, the SMConfig fields, the scale, and a digest of the
   simulator's own sources, so any change to the simulator, compiler, or
   benchmark inputs invalidates stale entries automatically.  Disable
   with :func:`set_disk_cache` (or ``--no-cache`` on the CLI) and wipe
   with ``clear_cache(disk=True)``.

The evaluation geometry is a scaled-down SM (32 warps x 8 lanes rather
than the paper's 64 x 32) so the full suite simulates in seconds; storage
and area figures are always *reported* at the paper's geometry via the
area model.
"""

import hashlib
import os
import pickle
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field

from repro.benchsuite import ALL_BENCHMARKS, BENCHMARK_NAMES
from repro.nocl import NoCLRuntime
from repro.obs.telemetry import active_tracer
from repro.simt import SMConfig, SMStats

#: Simulated SM geometry for the evaluation runs.  Plenty of warps are
#: needed to mask DRAM latency, exactly as the paper uses 64 warps on
#: FPGA (section 4.1); the thread count stays square so the tiled kernels
#: get an integral tile size.
EVAL_GEOMETRY = dict(num_warps=32, num_lanes=8)

#: The named configurations of the evaluation (paper section 4.1 + 4.7).
CONFIG_NAMES = ("baseline", "cheri", "cheri_opt", "boundscheck")

#: Manual salt for the on-disk cache format.  Bump when the pickle layout
#: of RunResult/SMStats changes in a way the source digest cannot see.
_DISK_FORMAT = 1


def config_for(name, **overrides):
    """Build (mode, SMConfig) for a named evaluation configuration."""
    geometry = dict(EVAL_GEOMETRY)
    geometry.update(overrides)
    if name == "baseline":
        return "baseline", SMConfig.baseline(**geometry)
    if name == "cheri":
        return "purecap", SMConfig.cheri(**geometry)
    if name == "cheri_opt":
        return "purecap", SMConfig.cheri_optimised(**geometry)
    if name == "cheri_opt_no_nvo":
        cfg = SMConfig.cheri_optimised(**geometry).with_(nvo=False)
        return "purecap", cfg
    # Ablations: the optimised configuration minus one technique each.
    if name == "cheri_opt_split_vrf":
        cfg = SMConfig.cheri_optimised(**geometry).with_(shared_vrf=False)
        return "purecap", cfg
    if name == "cheri_opt_dual_port_srf":
        cfg = SMConfig.cheri_optimised(**geometry).with_(
            metadata_srf_single_port=False)
        return "purecap", cfg
    if name == "cheri_opt_lane_bounds":
        cfg = SMConfig.cheri_optimised(**geometry).with_(
            sfu_cheri_slow_path=False)
        return "purecap", cfg
    if name == "cheri_opt_dynamic_pcc":
        cfg = SMConfig.cheri_optimised(**geometry).with_(
            static_pc_metadata=False)
        return "purecap", cfg
    if name == "boundscheck":
        return "boundscheck", SMConfig.baseline(**geometry)
    raise ValueError("unknown configuration %r" % name)


@dataclass
class RunMeta:
    """Provenance of one RunResult: where it came from and what it cost."""

    source: str = "sim"        # "sim" | "disk"
    wall_seconds: float = 0.0  # simulation wall-clock (0.0 for disk hits)
    #: Per-kernel optimizer reports (``CompiledKernel.opt_report``) when
    #: the run compiled at -O1; None otherwise.  Diagnostic side-band,
    #: surfaced in manifests and ``repro profile``.
    opt: dict = None


@dataclass
class RunResult:
    """One verified benchmark run."""

    benchmark: str
    config_name: str
    mode: str
    stats: SMStats
    config: SMConfig
    meta: RunMeta = None


@dataclass
class RunnerStats:
    """Process-wide cache behaviour and simulation-time counters.

    Safe under concurrent use: the simulation service (``repro.serve``)
    issues overlapping :func:`run_benchmark` calls from executor threads,
    so every mutation goes through :meth:`bump` under one lock and
    :meth:`snapshot` returns a consistent point-in-time copy.
    """

    memo_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    sim_seconds: float = 0.0
    manifest_write_failures: int = 0
    #: Unreadable disk-cache entries dropped (and re-simulated) on load.
    corrupt_entries: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False, compare=False)

    def bump(self, memo_hits=0, disk_hits=0, misses=0, sim_seconds=0.0,
             manifest_write_failures=0, corrupt_entries=0):
        with self._lock:
            self.memo_hits += memo_hits
            self.disk_hits += disk_hits
            self.misses += misses
            self.sim_seconds += sim_seconds
            self.manifest_write_failures += manifest_write_failures
            self.corrupt_entries += corrupt_entries

    def snapshot(self):
        with self._lock:
            return dict(memo_hits=self.memo_hits, disk_hits=self.disk_hits,
                        misses=self.misses,
                        sim_seconds=round(self.sim_seconds, 3),
                        manifest_write_failures=
                        self.manifest_write_failures,
                        corrupt_entries=self.corrupt_entries)

    def reset(self):
        with self._lock:
            self.memo_hits = self.disk_hits = self.misses = 0
            self.sim_seconds = 0.0
            self.manifest_write_failures = 0
            self.corrupt_entries = 0


#: Counters for this process (reset with ``RUNNER_STATS.reset()``).
RUNNER_STATS = RunnerStats()

#: Guards the in-process memo (``_CACHE``), the lazy source and kernel
#: digests and writes to the job-key memo; the per-counter lock lives
#: inside :class:`RunnerStats`.
_LOCK = threading.RLock()

_CACHE = {}
_disk_enabled = True
_manifests_enabled = True

#: Source trees whose content participates in the disk-cache key: any
#: edit to the simulator, ISA, compiler, or benchmark inputs must
#: invalidate previously cached statistics.
_DIGEST_PACKAGES = ("simt", "cheri", "memory", "isa", "nocl", "benchsuite")


def set_disk_cache(enabled):
    """Globally enable/disable the persistent disk cache."""
    global _disk_enabled
    _disk_enabled = bool(enabled)


def set_manifests(enabled):
    """Globally enable/disable run-manifest emission from run_suite."""
    global _manifests_enabled
    _manifests_enabled = bool(enabled)


def cache_dir():
    """Location of the persistent result cache (``results/.simcache``)."""
    override = os.environ.get("REPRO_SIMCACHE_DIR")
    if override:
        return override
    import repro
    return os.path.join(repro.RESULTS_DIR, ".simcache")


def clear_cache(disk=False):
    """Drop the in-process memo (and optionally the on-disk cache)."""
    with _LOCK:
        _CACHE.clear()
    if disk:
        directory = cache_dir()
        if os.path.isdir(directory):
            for entry in os.listdir(directory):
                if entry.endswith(".pkl"):
                    try:
                        os.unlink(os.path.join(directory, entry))
                    except OSError:
                        pass


_sources_digest_memo = None


def _sources_digest():
    """SHA-256 over every simulator source file (cache-key ingredient)."""
    global _sources_digest_memo
    with _LOCK:
        if _sources_digest_memo is not None:
            return _sources_digest_memo
        import repro
        pkg_root = os.path.dirname(os.path.abspath(repro.__file__))
        h = hashlib.sha256()
        h.update(b"format:%d" % _DISK_FORMAT)
        for package in _DIGEST_PACKAGES:
            base = os.path.join(pkg_root, package)
            for dirpath, dirnames, filenames in os.walk(base):
                dirnames.sort()
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    h.update(os.path.relpath(path, pkg_root).encode())
                    with open(path, "rb") as stream:
                        h.update(stream.read())
        _sources_digest_memo = h.digest()
    return _sources_digest_memo


def kernel_sources(name):
    """Every :class:`KernelSource` bound in benchmark ``name``'s module,
    as {attribute name: source} in definition order: the kernels the
    benchmark can launch, found without running it."""
    import inspect

    from repro.nocl.dsl import KernelSource
    mod = inspect.getmodule(type(ALL_BENCHMARKS[name]))
    return {attr: obj for attr, obj in vars(mod).items()
            if isinstance(obj, KernelSource)}


_kernel_digest_memo = {}


def _kernel_digest(name, mode, opt=0):
    """Hash of the benchmark's compiled kernel binaries under ``mode``.

    The kernels are :func:`kernel_sources` (as for the CLI's ``listing``
    command), compiled at the run's optimization level — so -O0 and -O1
    results can never alias even before the config repr is hashed.
    Memoised per (benchmark, mode, opt) for the process lifetime, like
    :func:`_sources_digest`: compile output is a pure function of the
    sources loaded at start-up, so each kernel compiles once per process
    and a cache key after that costs a few hashes.
    """
    memo_key = (name, mode, opt)
    with _LOCK:
        digest = _kernel_digest_memo.get(memo_key)
        if digest is not None:
            return digest
        from repro.nocl.compiler import compile_kernel
        h = hashlib.sha256()
        for attr, source in sorted(kernel_sources(name).items()):
            words = compile_kernel(source, mode, opt=opt).to_binary()
            h.update(attr.encode())
            h.update(repr(words).encode())
        digest = _kernel_digest_memo[memo_key] = h.digest()
    return digest


def _disk_key(name, mode, config, scale):
    h = hashlib.sha256()
    h.update(_sources_digest())
    h.update(repr((name, mode, scale,
                   sorted(asdict(config).items()))).encode())
    h.update(_kernel_digest(name, mode, opt=getattr(config, "opt", 0)))
    return h.hexdigest()


def _disk_load(name, config_name, mode, config, scale):
    path = os.path.join(cache_dir(),
                        _disk_key(name, mode, config, scale) + ".pkl")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as stream:
            result = pickle.load(stream)
    except Exception:
        # Corrupt/truncated entry: count it, drop it, treat as a miss (the
        # re-simulation rewrites it).
        RUNNER_STATS.bump(corrupt_entries=1)
        try:
            os.unlink(path)
        except OSError:
            pass
        return None
    # Re-label: different config aliases can resolve to the same content
    # key (e.g. an overridden cheri_opt equals an ablation config).
    result.config_name = config_name
    # Optimizer reports are deterministic per (kernel, config), so they
    # survive the cache and -O1 manifests carry per-pass data whether the
    # run simulated or hit disk.
    result.meta = RunMeta(source="disk", wall_seconds=0.0,
                          opt=getattr(result.meta, "opt", None))
    return result


def _disk_store(result, mode, scale):
    directory = cache_dir()
    path = os.path.join(
        directory,
        _disk_key(result.benchmark, mode, result.config, scale) + ".pkl")
    try:
        os.makedirs(directory, exist_ok=True)
        tmp = path + ".tmp.%d" % os.getpid()
        with open(tmp, "wb") as stream:
            pickle.dump(result, stream, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
    except OSError:
        pass  # a read-only checkout never blocks experiments


def _simulate(name, config_name, mode, config, scale):
    bench = ALL_BENCHMARKS[name]
    rt = NoCLRuntime(mode, config=config)
    tracer = active_tracer()
    span_cm = (tracer.span("simulate",
                           attrs={"benchmark": name, "config": config_name,
                                  "scale": scale,
                                  "backend": getattr(config, "backend", "")})
               if tracer is not None else nullcontext())
    with span_cm:
        start = time.perf_counter()
        stats = bench.run(rt, scale=scale)
        elapsed = time.perf_counter() - start
    opt_reports = None
    if getattr(config, "opt", 0):
        opt_reports = {
            program.name: program.opt_report
            for program in rt._compiled.values()
            if program.opt_report is not None
        } or None
    return RunResult(name, config_name, mode, stats, config,
                     meta=RunMeta(source="sim", wall_seconds=elapsed,
                                  opt=opt_reports))


#: Job keys memoised per (benchmark, config name, scale, overrides),
#: oldest out first beyond ``JOB_KEY_MEMO_MAX`` entries.
_job_key_memo = {}
JOB_KEY_MEMO_MAX = 4096


def _job_key_memo_key(name, config_name, scale, overrides):
    # The disk key hashes reprs, so the memo key does too: 1, 1.0 and
    # True compare equal but must not share a key.
    return name, config_name, repr((scale, sorted(overrides.items())))


def memoised_job_key(name, config_name, scale=1, **overrides):
    """:func:`job_key` if this process has already computed it, else
    None; never compiles.  Reads without ``_LOCK``, which a kernel
    compile holds, so an event loop never waits on a compile."""
    return _job_key_memo.get(
        _job_key_memo_key(name, config_name, scale, overrides))


def job_key(name, config_name, scale=1, **overrides):
    """Content-addressed identity of one benchmark run (hex digest).

    This is exactly the persistent disk-cache key: it covers the compiled
    kernel binaries, the fully-resolved :class:`SMConfig`, the scale, and
    the simulator source digest.  Two submissions with the same key are
    guaranteed to produce bit-identical statistics, which is what lets
    the simulation service (``repro.serve``) coalesce duplicate jobs.
    Memoised for the process lifetime like the digests inside it, so a
    repeated key costs one ``repr`` and a dict lookup.
    """
    memo_key = _job_key_memo_key(name, config_name, scale, overrides)
    key = _job_key_memo.get(memo_key)
    if key is not None:
        return key
    mode, config = config_for(config_name, **overrides)
    key = _disk_key(name, mode, config, scale)
    with _LOCK:
        if len(_job_key_memo) >= JOB_KEY_MEMO_MAX:
            del _job_key_memo[next(iter(_job_key_memo))]
        _job_key_memo[memo_key] = key
    return key


def probe_disk(name, config_name, scale=1, **overrides):
    """Non-executing cache probe: the :class:`RunResult` or ``None``.

    A hit is merged into the in-process memo (and counted), so a later
    :func:`run_benchmark` for the same key is a memo hit.
    """
    if not _disk_enabled:
        return None
    mode, config = config_for(config_name, **overrides)
    key = (name, config_name, mode, config, scale)
    with _LOCK:
        result = _CACHE.get(key)
    if result is not None:
        return result
    result = _disk_load(name, config_name, mode, config, scale)
    if result is not None:
        RUNNER_STATS.bump(disk_hits=1)
        with _LOCK:
            _CACHE[key] = result
    return result


def run_benchmark(name, config_name, scale=1, **overrides):
    """Run one benchmark under a named configuration (memoised).

    Results come from, in order: the in-process memo, the persistent disk
    cache (unless disabled), or a fresh simulation.  ``overrides`` are
    :class:`SMConfig` field overrides applied on top of the evaluation
    geometry.  Reentrant: overlapping calls from several threads (the
    simulation service does this) see a consistent memo; the scheduler
    above is responsible for not simulating the same key twice in
    parallel.

    With a process tracer installed (:func:`repro.obs.telemetry.install`)
    the call is timed as a ``runner.run`` span whose ``source`` attr
    records where the result came from; without one, nothing is touched
    — the statistics are bit-identical either way (pinned by the
    equivalence suite).
    """
    tracer = active_tracer()
    if tracer is not None:
        with tracer.span("runner.run",
                         attrs={"benchmark": name, "config": config_name,
                                "scale": scale}) as span:
            result = _run_benchmark(name, config_name, scale, **overrides)
            span.set_attr("source",
                          result.meta.source if result.meta else "?")
        return result
    return _run_benchmark(name, config_name, scale, **overrides)


def _lookup(name, config_name, mode, config, scale):
    """Counted memo then disk-cache lookup: ``(memo key, result)``.

    ``result`` is None on a miss; a disk hit is merged into the memo.
    """
    key = (name, config_name, mode, config, scale)
    with _LOCK:
        result = _CACHE.get(key)
    if result is not None:
        RUNNER_STATS.bump(memo_hits=1)
    elif _disk_enabled:
        result = _disk_load(name, config_name, mode, config, scale)
        if result is not None:
            RUNNER_STATS.bump(disk_hits=1)
            with _LOCK:
                _CACHE[key] = result
    return key, result


def _run_benchmark(name, config_name, scale, **overrides):
    mode, config = config_for(config_name, **overrides)
    key, result = _lookup(name, config_name, mode, config, scale)
    if result is not None:
        return result
    result = _simulate(name, config_name, mode, config, scale)
    RUNNER_STATS.bump(misses=1, sim_seconds=result.meta.wall_seconds)
    with _LOCK:
        _CACHE[key] = result
    if _disk_enabled:
        _disk_store(result, mode, scale)
    return result


def _worker_run(name, config_name, scale, overrides_items):
    """Top-level worker entry point (must be picklable)."""
    return run_benchmark(name, config_name, scale, **dict(overrides_items))


def run_suite(config_name, scale=1, jobs=None, **overrides):
    """Run the whole Table 1 suite under one configuration.

    ``jobs`` bounds the number of worker processes used for runs that are
    in neither the memo nor the disk cache; ``None`` means
    ``os.cpu_count()`` and ``1`` forces a serial in-process run.  Worker
    results are merged into the in-process memo (and the disk cache), so
    repeated calls are hits regardless of how the first call ran.
    """
    suite_start = time.perf_counter()
    results = {}
    pending = []
    mode, config = config_for(config_name, **overrides)
    for name in BENCHMARK_NAMES:
        key, cached = _lookup(name, config_name, mode, config, scale)
        if cached is not None:
            results[name] = cached
        else:
            pending.append((name, key))
    if pending:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if jobs > 1 and len(pending) > 1:
            overrides_items = tuple(sorted(overrides.items()))
            with ProcessPoolExecutor(
                    max_workers=min(jobs, len(pending))) as pool:
                futures = [
                    (name, key,
                     pool.submit(_worker_run, name, config_name, scale,
                                 overrides_items))
                    for name, key in pending
                ]
                for name, key, future in futures:
                    result = future.result()
                    RUNNER_STATS.bump(
                        misses=1, sim_seconds=result.meta.wall_seconds)
                    with _LOCK:
                        _CACHE[key] = result
                    results[name] = result
        else:
            for name, _key in pending:
                results[name] = run_benchmark(name, config_name, scale,
                                              **overrides)
    ordered = {name: results[name] for name in BENCHMARK_NAMES}
    if _manifests_enabled:
        _emit_manifest(ordered, config_name, scale,
                       time.perf_counter() - suite_start, overrides)
    return ordered


def _emit_manifest(results, config_name, scale, wall_seconds,
                   overrides=None):
    """Write the structured run manifest for one suite invocation.

    Best-effort by design: a broken or read-only manifest directory must
    never fail an experiment run — but a failure is never *silent*
    either: it logs one line and bumps the process-wide
    ``manifest_write_failures`` counter (carried in every later
    manifest's ``runner_counters`` and flagged by ``repro obs
    report``), so lost provenance stays visible.
    """
    import sys
    from repro.obs import manifest as mf
    try:
        # Overrides that change the config (-O1 has its own file suffix).
        default = config_for(config_name)[1]
        changed = {name: value for name, value in (overrides or {}).items()
                   if name != "opt" and getattr(default, name) != value}
        manifest = mf.build_manifest(
            results, config_name, scale, wall_seconds,
            sources_digest=_sources_digest().hex(),
            runner_counters=RUNNER_STATS.snapshot(), overrides=changed)
        # write_manifest itself swallows filesystem errors and returns
        # None — the common failure (read-only results dir) surfaces as
        # that None, not as an exception.
        path = mf.write_manifest(manifest)
        reason = "results dir not writable" if path is None else None
    except Exception as exc:
        path = None
        reason = "%s: %s" % (type(exc).__name__, exc)
    if reason is not None:
        RUNNER_STATS.bump(manifest_write_failures=1)
        print("warning: run manifest write failed (%s) — provenance "
              "for this suite invocation was not recorded"
              % reason, file=sys.stderr)
    return path


def geomean(values):
    """Geometric mean of (1 + x) ratios expressed as overheads."""
    if not values:
        return 0.0
    product = 1.0
    for value in values:
        product *= (1.0 + value)
    return product ** (1.0 / len(values)) - 1.0
