"""Thread-safety of the runner's stats/memo, the job-key/probe API the
simulation service builds on, and recovery from corrupt cache entries."""

import collections
import os
import pickle
import threading

import pytest

from repro.eval import runner
from repro.serve.jobs import JobSpec, compute_key, probe_cache


@pytest.fixture()
def private_cache(tmp_path, monkeypatch):
    """Point the disk cache at an empty directory and clear the memo."""
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path))
    runner.clear_cache()
    yield str(tmp_path)
    runner.clear_cache()


GEOMETRY = {"num_warps": 4, "num_lanes": 4}


class TestRunnerStats:
    def test_bump_is_atomic_under_threads(self):
        stats = runner.RunnerStats()
        threads = [threading.Thread(
            target=lambda: [stats.bump(memo_hits=1, misses=1,
                                       sim_seconds=0.5)
                            for _ in range(1000)])
            for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = stats.snapshot()
        assert snapshot["memo_hits"] == 8000
        assert snapshot["misses"] == 8000
        assert snapshot["sim_seconds"] == pytest.approx(4000.0)

    def test_reset_zeroes_counters(self):
        stats = runner.RunnerStats()
        stats.bump(disk_hits=3)
        stats.reset()
        assert stats.snapshot()["disk_hits"] == 0


class TestJobKeyAndProbe:
    def test_job_key_is_stable_and_param_sensitive(self):
        one = runner.job_key("VecAdd", "baseline", **GEOMETRY)
        assert one == runner.job_key("VecAdd", "baseline", **GEOMETRY)
        assert one != runner.job_key("VecAdd", "cheri_opt", **GEOMETRY)
        assert one != runner.job_key("VecAdd", "baseline", 2, **GEOMETRY)
        int(one, 16)  # hex digest

    def test_probe_misses_on_empty_cache(self, private_cache):
        assert runner.probe_disk("VecAdd", "baseline", **GEOMETRY) is None

    def test_probe_returns_cached_result(self, private_cache):
        ran = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        runner.clear_cache()  # drop the memo, keep the disk entry
        probed = runner.probe_disk("VecAdd", "baseline", **GEOMETRY)
        assert probed is not None
        assert probed.stats.as_dict() == ran.stats.as_dict()
        # The probe merges into the memo: a rerun is a memo hit.
        again = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        assert again.stats.as_dict() == ran.stats.as_dict()

    def test_probe_disabled_with_disk_cache(self, private_cache,
                                            monkeypatch):
        runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        runner.clear_cache()
        monkeypatch.setattr(runner, "_disk_enabled", False)
        assert runner.probe_disk("VecAdd", "baseline", **GEOMETRY) is None


class TestKernelDigestMemo:
    """A cache key compiles each kernel once per process, not per call."""

    @pytest.fixture()
    def compiles(self, monkeypatch):
        from repro.nocl import compiler
        calls = collections.Counter()
        compile_kernel = compiler.compile_kernel

        def spy(source, mode, opt=0):
            calls[(source.name, mode, opt)] += 1
            return compile_kernel(source, mode, opt=opt)

        monkeypatch.setattr(compiler, "compile_kernel", spy)
        monkeypatch.setattr(runner, "_kernel_digest_memo", {})
        monkeypatch.setattr(runner, "_job_key_memo", {})
        return calls

    def test_repeated_keys_and_probes_compile_once(self, compiles,
                                                   private_cache):
        spec = JobSpec(benchmark="BitonicSm", config_name="cheri_opt",
                       overrides=dict(GEOMETRY, opt=1))
        keys = set()
        for _ in range(3):
            keys.add(runner.job_key("BitonicSm", "cheri_opt",
                                    opt=1, **GEOMETRY))
            keys.add(compute_key(spec))
            assert runner.probe_disk("BitonicSm", "cheri_opt",
                                     opt=1, **GEOMETRY) is None
        assert len(keys) == 1
        # BitonicSm's module binds two kernels: each compiles once.
        assert len(compiles) == 2
        assert set(compiles.values()) == {1}
        assert {(mode, opt) for _, mode, opt in compiles} == \
            {("purecap", 1)}

    def test_modes_and_opt_levels_still_give_distinct_keys(self, compiles):
        keys = {(config, opt): runner.job_key("Histogram", config,
                                              opt=opt, **GEOMETRY)
                for config in ("baseline", "cheri_opt", "boundscheck")
                for opt in (0, 1)}
        assert len(set(keys.values())) == len(keys)
        assert set(compiles.values()) == {1}
        assert {(mode, opt) for _, mode, opt in compiles} == {
            (mode, opt) for mode in ("baseline", "purecap", "boundscheck")
            for opt in (0, 1)}


class TestJobKeyMemo:
    """A repeated job key is a memo lookup that returns the fresh key."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(runner, "_job_key_memo", {})

    @staticmethod
    def fresh(name, config_name, scale=1, **overrides):
        mode, config = runner.config_for(config_name, **overrides)
        return runner._disk_key(name, mode, config, scale)

    def test_memo_returns_the_fresh_key(self):
        fresh = self.fresh("VecAdd", "baseline", **GEOMETRY)
        assert runner.memoised_job_key("VecAdd", "baseline",
                                       **GEOMETRY) is None
        assert runner.job_key("VecAdd", "baseline", **GEOMETRY) == fresh
        assert runner.memoised_job_key("VecAdd", "baseline",
                                       **GEOMETRY) == fresh
        assert runner.job_key("VecAdd", "baseline", **GEOMETRY) == fresh
        assert len(runner._job_key_memo) == 1

    def test_equal_numbers_keep_their_own_keys(self):
        # 1 == 1.0 == True, but the disk key hashes their reprs.
        values = (1, 1.0, True)
        keys = [runner.job_key("VecAdd", "baseline", opt=opt, **GEOMETRY)
                for opt in values]
        assert len(set(keys)) == 3
        assert keys == [self.fresh("VecAdd", "baseline", opt=opt,
                                   **GEOMETRY) for opt in values]
        assert [runner.job_key("VecAdd", "baseline", scale, **GEOMETRY)
                for scale in (1, 1.0)] == \
            [self.fresh("VecAdd", "baseline", scale, **GEOMETRY)
             for scale in (1, 1.0)]

    def test_memo_stays_within_its_cap(self, monkeypatch):
        monkeypatch.setattr(runner, "JOB_KEY_MEMO_MAX", 3)
        for scale in range(1, 7):
            assert runner.job_key("VecAdd", "baseline", scale,
                                  **GEOMETRY) == \
                self.fresh("VecAdd", "baseline", scale, **GEOMETRY)
            assert len(runner._job_key_memo) <= 3
        # Oldest out first: the last three scales are still memoised.
        assert [runner.memoised_job_key("VecAdd", "baseline", scale,
                                        **GEOMETRY) is not None
                for scale in range(1, 7)] == [False] * 3 + [True] * 3


def _truncate(path):
    with open(path, "rb") as stream:
        data = stream.read()
    with open(path, "wb") as stream:
        stream.write(data[:len(data) // 2])


def _garble(path):
    with open(path, "wb") as stream:
        stream.write(b"this is not a pickle\n" * 8)


@pytest.mark.parametrize("damage", [_truncate, _garble],
                         ids=["truncated", "garbage"])
class TestCorruptEntries:
    """A damaged ``.pkl`` is counted, re-simulated and rewritten."""

    def entry(self, cache):
        return os.path.join(cache, runner.job_key("VecAdd", "baseline",
                                                  **GEOMETRY) + ".pkl")

    def test_run_resimulates_and_rewrites(self, private_cache, damage):
        clean = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        path = self.entry(private_cache)
        damage(path)
        runner.clear_cache()
        before = runner.RUNNER_STATS.snapshot()["corrupt_entries"]
        rerun = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        assert runner.RUNNER_STATS.snapshot()["corrupt_entries"] == \
            before + 1
        assert rerun.meta.source == "sim"
        assert rerun.stats.as_dict() == clean.stats.as_dict()
        with open(path, "rb") as stream:
            rewritten = pickle.load(stream)
        assert rewritten.stats.as_dict() == clean.stats.as_dict()
        runner.clear_cache()
        warm = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        assert warm.meta.source == "disk"
        assert runner.RUNNER_STATS.snapshot()["corrupt_entries"] == \
            before + 1

    def test_probe_misses_and_the_served_cell_executes(self, private_cache,
                                                       damage):
        from repro.serve.jobs import execute_spec
        spec = JobSpec(benchmark="VecAdd", config_name="baseline",
                       overrides=dict(GEOMETRY))
        clean = runner.run_benchmark("VecAdd", "baseline", **GEOMETRY)
        damage(self.entry(private_cache))
        runner.clear_cache()
        before = runner.RUNNER_STATS.snapshot()["corrupt_entries"]
        assert probe_cache(spec) is None
        assert runner.RUNNER_STATS.snapshot()["corrupt_entries"] == \
            before + 1
        payload = execute_spec(spec.as_dict())
        assert payload["cache_source"] == "sim"
        assert payload["stats"] == clean.stats.as_dict()
        assert probe_cache(spec) is not None


class TestConcurrentRuns:
    def test_threads_share_one_result(self, private_cache):
        results = [None] * 6
        barrier = threading.Barrier(len(results))

        def work(slot):
            barrier.wait()
            results[slot] = runner.run_benchmark("VecAdd", "baseline",
                                                 **GEOMETRY)

        threads = [threading.Thread(target=work, args=(slot,))
                   for slot in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = [result.stats.as_dict() for result in results]
        assert all(entry == stats[0] for entry in stats)
