"""Equivalence proof for the runner's fast paths.

The hot-path optimizations (decode-cached dispatch, incremental register
file occupancy) and the runner's cache/parallel machinery must never
change a simulated statistic.  These tests pin that property:

- a fresh serial simulation is deterministic, in-process and across
  interpreter processes;
- the parallel ``run_suite`` path produces bit-identical statistics to
  the serial path;
- a disk-cache round trip restores bit-identical statistics.

Statistics are compared as the full :class:`SMStats` field dict (cycles,
per-opcode counts, DRAM byte counters, ...), not just headline numbers.
"""

import hashlib
import os
import subprocess
import sys
from dataclasses import asdict

import pytest

import repro
from repro.eval import runner

#: Small geometry so the six fresh simulations stay quick.
GEOMETRY = dict(num_warps=4, num_lanes=4)
BENCHES = ("VecAdd", "Histogram", "Reduce")
CONFIGS = ("baseline", "cheri_opt")
#: Benchmarks whose warps diverge at GEOMETRY, so the vector backend
#: enters fused regions under partial masks.
DIVERGENT_BENCHES = ("BitonicLa", "BitonicSm", "BlkStencil", "MotionEst",
                     "SPMV", "Scan", "VecGCD")


def _signature(result):
    """Every statistic of a run, as a plain comparable dict."""
    return asdict(result.stats)


def _fresh(name, config_name):
    """Simulate outside every cache layer: the ground-truth result."""
    mode, config = runner.config_for(config_name, **GEOMETRY)
    return runner._simulate(name, config_name, mode, config, scale=1)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a throwaway dir and reset the memo."""
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / "simcache"))
    was_enabled = runner._disk_enabled
    runner.clear_cache()
    yield
    runner.set_disk_cache(was_enabled)
    runner.clear_cache()


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("name", BENCHES)
class TestPerBenchmark:
    def test_fresh_runs_are_deterministic(self, name, config_name):
        assert _signature(_fresh(name, config_name)) == \
            _signature(_fresh(name, config_name))

    def test_disk_round_trip_is_bit_identical(self, name, config_name):
        reference = _signature(_fresh(name, config_name))
        runner.set_disk_cache(True)
        first = runner.run_benchmark(name, config_name, **GEOMETRY)
        assert first.meta.source == "sim"
        assert _signature(first) == reference
        # Drop the memo so the second call must come from disk.
        runner.clear_cache()
        second = runner.run_benchmark(name, config_name, **GEOMETRY)
        assert second.meta.source == "disk"
        assert _signature(second) == reference


@pytest.fixture
def small_suite(monkeypatch):
    """Limit run_suite to the three test benchmarks to keep this quick.

    The pool and cache-merge machinery is exercised exactly as with the
    full suite; only the fan-out width shrinks.
    """
    monkeypatch.setattr(runner, "BENCHMARK_NAMES", BENCHES)


class TestSuitePaths:
    def test_parallel_suite_matches_serial(self, small_suite):
        runner.set_disk_cache(False)
        serial = runner.run_suite("cheri_opt", jobs=1, **GEOMETRY)
        runner.clear_cache()
        parallel = runner.run_suite("cheri_opt", jobs=2, **GEOMETRY)
        assert list(serial) == list(parallel)
        for name in serial:
            assert _signature(serial[name]) == _signature(parallel[name]), \
                name

    def test_warm_disk_suite_matches_serial(self, small_suite):
        runner.set_disk_cache(False)
        serial = runner.run_suite("baseline", jobs=1, **GEOMETRY)
        runner.set_disk_cache(True)
        runner.clear_cache()
        populate = runner.run_suite("baseline", jobs=1, **GEOMETRY)
        runner.clear_cache()
        warm = runner.run_suite("baseline", jobs=1, **GEOMETRY)
        assert all(r.meta.source == "disk" for r in warm.values())
        for name in serial:
            assert _signature(serial[name]) == _signature(warm[name])
            assert _signature(populate[name]) == _signature(warm[name])


class TestProbeEquivalence:
    """Attaching the observability probes must not perturb a single
    statistic: the hooks only *read* pipeline state (guarded by one
    ``probes is not None`` check), so stats with a full collector stack
    attached are bit-identical to the probe-free hot path."""

    @pytest.mark.parametrize("config_name", CONFIGS)
    @pytest.mark.parametrize("name", BENCHES)
    def test_stats_bit_identical_with_probes_attached(self, name,
                                                      config_name):
        from repro.benchsuite import ALL_BENCHMARKS
        from repro.nocl import NoCLRuntime
        from repro.obs import (
            ProfileCollector,
            TimelineCollector,
            attach,
            detach,
        )
        reference = _signature(_fresh(name, config_name))

        mode, config = runner.config_for(config_name, **GEOMETRY)
        rt = NoCLRuntime(mode, config=config)
        profiler = ProfileCollector()
        attach(rt.sm, profiler, TimelineCollector())
        stats = ALL_BENCHMARKS[name].run(rt, scale=1)
        detach(rt.sm)

        assert asdict(stats) == reference
        # ...and the profile actually observed the run it did not perturb.
        assert profiler.total_attributed() == stats.cycles


class TestTelemetryEquivalence:
    """An installed tracer must not perturb a single statistic: the
    runner's instrumentation only opens spans around the simulation
    (guarded by one ``active_tracer() is None`` check) and never touches
    pipeline state, so stats with telemetry attached are bit-identical
    to the uninstrumented hot path."""

    @pytest.mark.parametrize("config_name", CONFIGS)
    @pytest.mark.parametrize("name", BENCHES)
    def test_stats_bit_identical_with_tracer_installed(self, name,
                                                       config_name):
        from repro.obs.telemetry import Tracer, active_tracer, install
        reference = _signature(_fresh(name, config_name))

        tracer = Tracer(process="test")
        previous = install(tracer)
        try:
            traced = runner.run_benchmark(name, config_name, **GEOMETRY)
        finally:
            install(previous)
        assert active_tracer() is previous

        assert _signature(traced) == reference
        # ...and the tracer actually observed the run it did not perturb.
        names = [span.name for span in tracer.spans]
        assert "simulate" in names
        assert "runner.run" in names
        run_span = next(span for span in tracer.spans
                        if span.name == "runner.run")
        assert run_span.attrs["benchmark"] == name
        assert run_span.duration > 0


class TestLockstepEquivalence:
    """The lockstep cross-checker reads pipeline state through
    side-effect-free accessors only, so benchmark statistics with a
    golden-model checker attached are bit-identical to the probe-free
    hot path — the differential harness observes the real simulator,
    not a perturbed one."""

    @pytest.mark.parametrize("config_name", CONFIGS)
    @pytest.mark.parametrize("name", BENCHES)
    def test_stats_bit_identical_with_checker_attached(self, name,
                                                       config_name):
        from repro.check import check_benchmark
        reference = _signature(_fresh(name, config_name))

        stats, checker = check_benchmark(name, config_name, scale=1,
                                         **GEOMETRY)

        assert asdict(stats) == reference
        # ...and the checker actually cross-checked the run.
        assert checker.retired > 0
        assert checker.launches > 0


class TestCrossProcess:
    def test_fresh_interpreter_reproduces_stats(self):
        """A brand-new Python process computes the exact same statistics.

        Guards the RNG seeding and iteration-order discipline that the
        disk cache relies on: without it, cached results would disagree
        with whatever a fresh process would have simulated.
        """
        reference = _fresh("VecAdd", "cheri_opt")
        digest = hashlib.sha256(
            repr(sorted(asdict(reference.stats).items())).encode()
        ).hexdigest()

        code = (
            "import hashlib\n"
            "from dataclasses import asdict\n"
            "from repro.eval import runner\n"
            "mode, config = runner.config_for('cheri_opt', num_warps=4,"
            " num_lanes=4)\n"
            "r = runner._simulate('VecAdd', 'cheri_opt', mode, config, 1)\n"
            "print(hashlib.sha256(repr(sorted(asdict(r.stats).items()))"
            ".encode()).hexdigest())\n"
        )
        src_dir = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              check=True)
        assert proc.stdout.strip() == digest


class TestBackendEquivalence:
    """The lane-vectorized backend vs the scalar reference, full suite.

    ``SMConfig.backend`` selects the execution backend; both must
    produce bit-identical :class:`SMStats` for every benchmark in the
    suite (not a sample — the vector backend's fast paths key off value
    patterns, so coverage must include every kernel) under all four
    protection configs.  The SM-level corner cases live in
    ``tests/simt/test_backend.py``; this is the end-to-end sweep.
    """

    @pytest.mark.parametrize("config_name", runner.CONFIG_NAMES)
    @pytest.mark.parametrize("name", sorted(
        __import__("repro.benchsuite", fromlist=["ALL_BENCHMARKS"])
        .ALL_BENCHMARKS))
    def test_full_suite_scalar_vector_bit_identical(self, name,
                                                    config_name,
                                                    monkeypatch):
        # The region threshold is lowered so that blocks too cold to
        # form a region at the default threshold also run through full
        # and masked fused regions at the small test geometry.
        from repro.simt.backend.vector import VectorBackend
        monkeypatch.setattr(VectorBackend, "_hot_threshold", 4)
        runner.set_disk_cache(False)
        scalar = runner.run_benchmark(name, config_name, backend="scalar",
                                      **GEOMETRY)
        vector = runner.run_benchmark(name, config_name, backend="vector",
                                      **GEOMETRY)
        assert _signature(scalar) == _signature(vector)

    @pytest.mark.parametrize("threshold", ["eager", "default"])
    @pytest.mark.parametrize("name", sorted(
        __import__("repro.benchsuite", fromlist=["ALL_BENCHMARKS"])
        .ALL_BENCHMARKS))
    def test_full_suite_vector_forms_regions(self, name, threshold,
                                             monkeypatch):
        """The sweep above would still pass if the vector tier silently
        stopped forming fused regions (the per-slot path is also exact).
        Pin that every launch of every benchmark forms regions at the
        test geometry, at the lowered threshold and at the default one,
        and that the kernels whose warps diverge enter them under
        partial masks.  Also pin the capability fast paths: only
        BlkStencil, whose pointers carry truly per-lane metadata,
        reaches the exact per-lane capability arithmetic or memory
        path."""
        from repro.simt.backend.vector import VectorBackend
        if threshold == "eager":
            monkeypatch.setattr(VectorBackend, "_hot_threshold", 4)
        formed, masked, exact = [], [], []
        run, prefix = VectorBackend.run, VectorBackend._masked_prefix

        def run_spy(self, max_cycles):
            cycle = run(self, max_cycles)
            formed.append(sum(1 for steps in self._regions.values()
                              if steps))
            return cycle

        def prefix_spy(self, warp, lanes, steps):
            entered = prefix(self, warp, lanes, steps)
            masked.append(entered >= 2)
            return entered

        def exact_spy(attr):
            original = getattr(VectorBackend, attr)

            def spy(self, *args):
                exact.append(attr)
                return original(self, *args)
            monkeypatch.setattr(VectorBackend, attr, spy)

        monkeypatch.setattr(VectorBackend, "run", run_spy)
        monkeypatch.setattr(VectorBackend, "_masked_prefix", prefix_spy)
        exact_spy("_cmod2_core")
        exact_spy("_memory_fallback")
        runner.set_disk_cache(False)
        runner.run_benchmark(name, "cheri_opt", backend="vector",
                             **GEOMETRY)
        assert formed and all(formed)
        if name in DIVERGENT_BENCHES:
            assert any(masked)
        if name != "BlkStencil":
            assert exact == []

    def test_multism_scalar_vector_bit_identical(self):
        from repro.nocl import i32
        from repro.nocl.multism import MultiSMRuntime
        from repro.nocl.dsl import KernelSource

        source = KernelSource.from_source(
            "def beq_vecadd(n: i32, a: ptr[i32], b: ptr[i32], "
            "c: ptr[i32]):\n"
            "    i = threadIdx.x + blockIdx.x * blockDim.x\n"
            "    while i < n:\n"
            "        c[i] = a[i] + b[i]\n"
            "        i += blockDim.x * gridDim.x\n"
        )
        n = 128
        per_backend = {}
        for backend in ("scalar", "vector"):
            config = runner.config_for(
                "cheri_opt", backend=backend, **GEOMETRY)[1]
            rt = MultiSMRuntime("purecap", num_sms=2, config=config)
            a, b, c = (rt.alloc(i32, n) for _ in range(3))
            rt.upload(a, list(range(n)))
            rt.upload(b, [7] * n)
            stats = rt.launch(source, grid_dim=4, block_dim=8,
                              args=[n, a, b, c])
            assert rt.download(c) == [i + 7 for i in range(n)]
            per_backend[backend] = [asdict(s) for s in stats.per_sm]
        assert per_backend["scalar"] == per_backend["vector"]
