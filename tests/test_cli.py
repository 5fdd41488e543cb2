"""Tests for the command-line interface and tracing facility."""

import pytest

from repro.cli import main
from repro.eval.tracing import TraceRecorder, trace_kernel


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "VecAdd" in out and "MotionEst" in out

    def test_run_benchmark(self, capsys):
        assert main(["run", "VecAdd", "--warps", "2", "--lanes", "4"]) == 0
        out = capsys.readouterr().out
        assert "PASSED self test" in out
        assert "cycles=" in out

    def test_run_purecap(self, capsys):
        assert main(["run", "Histogram", "--mode", "purecap",
                     "--warps", "2", "--lanes", "4"]) == 0
        out = capsys.readouterr().out
        assert "capability registers/thread" in out

    def test_listing(self, capsys):
        assert main(["listing", "VecAdd", "--mode", "purecap"]) == 0
        out = capsys.readouterr().out
        assert "clw" in out and "halt" in out

    def test_listing_baseline_has_no_cheri(self, capsys):
        assert main(["listing", "VecAdd", "--mode", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "clw" not in out and "lw" in out

    def test_trace(self, capsys):
        assert main(["trace", "VecAdd", "--warps", "2", "--lanes", "4",
                     "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "instruction" in out
        assert "w0" in out

    def test_results_match_checked_in_bytes(self, tmp_path, monkeypatch,
                                            capsys):
        import repro
        checked_in = repro.RESULTS_DIR
        monkeypatch.setattr(repro, "RESULTS_DIR", str(tmp_path))
        assert main(["results", "table3_synthesis",
                     "fig7_caplib_costs"]) == 0
        assert "126753" in capsys.readouterr().out
        written = sorted(path.name for path in tmp_path.iterdir())
        assert written == ["fig7_caplib_costs.json", "fig7_caplib_costs.txt",
                           "table3_synthesis.json", "table3_synthesis.txt"]
        for name in written:
            with open("%s/%s" % (checked_in, name), "rb") as stream:
                assert (tmp_path / name).read_bytes() == stream.read(), name

    def test_results_unknown_name_exits_two(self, tmp_path, monkeypatch,
                                            capsys):
        import repro
        monkeypatch.setattr(repro, "RESULTS_DIR", str(tmp_path))
        assert main(["results", "table3_synthesis", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "fig99" in err and "fig13_exec_overhead" in err
        assert not list(tmp_path.iterdir())

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "NotABenchmark"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


class TestRunJson:
    def test_run_json_is_machine_readable(self, capsys):
        import json
        assert main(["run", "VecAdd", "--json",
                     "--warps", "2", "--lanes", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["benchmark"] == "VecAdd"
        assert data["stats"]["cycles"] > 0
        assert data["stats"]["ipc"] > 0
        assert data["geometry"] == {"num_warps": 2, "num_lanes": 4}


class TestProfileCommand:
    def test_profile_source_view_sums_exactly(self, capsys):
        assert main(["profile", "VecAdd", "--config", "cheri_opt",
                     "--source", "--warps", "4", "--lanes", "4"]) == 0
        out = capsys.readouterr().out
        assert "exact match" in out
        assert "cycle profile by source line" in out
        assert "(idle)" in out

    def test_profile_is_case_insensitive(self, capsys):
        assert main(["profile", "transpose", "--config", "cheri_opt",
                     "--warps", "4", "--lanes", "4"]) == 0
        out = capsys.readouterr().out
        assert "Transpose" in out and "exact match" in out

    def test_profile_pc_view(self, capsys):
        assert main(["profile", "vecadd", "--pc",
                     "--warps", "4", "--lanes", "4"]) == 0
        out = capsys.readouterr().out
        assert "exact match" in out and "instruction" in out

    def test_profile_perfetto_export(self, tmp_path, capsys):
        import json

        from repro.obs import validate_trace
        out_path = str(tmp_path / "trace.json")
        assert main(["profile", "vecadd", "--perfetto", out_path,
                     "--warps", "4", "--lanes", "4"]) == 0
        assert "perfetto trace written" in capsys.readouterr().out
        with open(out_path) as stream:
            trace = json.load(stream)
        assert validate_trace(trace) == []

    def test_profile_json_view(self, capsys):
        import json
        assert main(["profile", "vecadd", "--json",
                     "--warps", "4", "--lanes", "4"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["profile"]["attributed_cycles"] == data["cycles"]

    def test_profile_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            main(["profile", "NotABenchmark"])


class TestBenchJson:
    def test_bench_json_reports_suite(self, tmp_path, monkeypatch, capsys):
        import json

        from repro.eval import runner
        monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / "simcache"))
        monkeypatch.setattr(runner, "BENCHMARK_NAMES",
                            ("VecAdd", "Reduce"))
        runner.clear_cache()
        try:
            assert main(["bench", "--json", "--jobs", "1",
                         "--warps", "4", "--lanes", "4", "cheri_opt"]) == 0
        finally:
            runner.clear_cache()
        data = json.loads(capsys.readouterr().out)
        suite = data["configs"]["cheri_opt"]["benchmarks"]
        assert set(suite) == {"VecAdd", "Reduce"}
        for record in suite.values():
            assert record["cycles"] > 0
            assert record["cache_source"] in ("sim", "disk", "memo")
        assert "runner_counters" in data


class TestDiffCommand:
    def _manifests(self, tmp_path):
        import copy
        import json

        from repro.obs import manifest as mf
        base = {
            "schema": mf.SCHEMA, "config": "cheri_opt", "scale": 1,
            "benchmarks": {
                "VecAdd": {"stats": {"cycles": 1000, "dram_txns": 50}},
            },
        }
        worse = copy.deepcopy(base)
        worse["benchmarks"]["VecAdd"]["stats"]["cycles"] = 1500
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        with open(a, "w") as stream:
            json.dump(base, stream)
        with open(b, "w") as stream:
            json.dump(worse, stream)
        return a, b

    def test_identical_manifests_exit_zero(self, tmp_path, capsys):
        a, _ = self._manifests(tmp_path)
        assert main(["diff", a, a]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        a, b = self._manifests(tmp_path)
        assert main(["diff", a, b]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_threshold_tames_regression(self, tmp_path, capsys):
        a, b = self._manifests(tmp_path)
        assert main(["diff", a, b, "--threshold", "0.6"]) == 0

    def test_missing_file_exits_two(self, tmp_path):
        a, _ = self._manifests(tmp_path)
        assert main(["diff", a, str(tmp_path / "nope.json")]) == 2


class TestTracing:
    def make_runtime(self):
        from repro.nocl import NoCLRuntime
        from repro.simt import SMConfig
        return NoCLRuntime("baseline",
                           config=SMConfig.baseline(num_warps=2,
                                                    num_lanes=4))

    def test_trace_kernel_records_issues(self):
        from repro.nocl import i32, kernel, ptr

        @kernel
        def tiny(a: ptr[i32]):
            a[threadIdx.x] = threadIdx.x

        rt = self.make_runtime()
        buf = rt.alloc(i32, 8)
        stats, recorder = trace_kernel(rt, tiny, 1, 4, [buf])
        assert len(recorder) > 0
        assert len(recorder) <= stats.instrs_issued
        first = recorder.entries[0]
        assert first.pc == 0
        assert first.active_lanes == [0, 1, 2, 3]
        # Tracing must be detached afterwards.
        assert rt.sm.probes is None

    def test_limit_and_dropped(self):
        recorder = TraceRecorder(limit=2)
        from repro.isa.instructions import Instr, Op
        for i in range(5):
            recorder.record(i, 0, 4 * i, Instr(Op.ADDI, rd=1, rs1=0, imm=0),
                            [0])
        assert len(recorder) == 2
        assert recorder.dropped == 3
        assert "3 further issues" in recorder.render()

    def test_warp_filter(self):
        recorder = TraceRecorder(only_warp=1)
        from repro.isa.instructions import Instr, Op
        recorder.record(0, 0, 0, Instr(Op.HALT), [0])
        recorder.record(0, 1, 0, Instr(Op.HALT), [0])
        assert len(recorder) == 1
        assert recorder.entries[0].warp == 1

    def test_empty_lane_set_renders(self):
        """An entry with no active lanes must not crash __str__."""
        from repro.isa.instructions import Instr, Op
        recorder = TraceRecorder(num_lanes=4)
        recorder.record(0, 0, 0, Instr(Op.HALT), [])
        text = str(recorder.entries[0])
        assert "[....]" in text
        # Without a known lane count the mask is simply empty.
        recorder = TraceRecorder()
        recorder.record(0, 0, 0, Instr(Op.HALT), [])
        assert "[]" in str(recorder.entries[0])

    def test_mask_rendered_at_sm_lane_count(self):
        """Partial masks pad out to the SM's warp width."""
        from repro.isa.instructions import Instr, Op
        recorder = TraceRecorder(num_lanes=8)
        recorder.record(0, 0, 0, Instr(Op.HALT), [0, 2])
        assert "[x.x.....]" in str(recorder.entries[0])

    def test_trace_kernel_uses_runtime_lane_count(self):
        from repro.nocl import i32, kernel, ptr

        @kernel
        def tiny(a: ptr[i32]):
            if threadIdx.x < 2:
                a[threadIdx.x] = threadIdx.x

        rt = self.make_runtime()  # 4 lanes
        buf = rt.alloc(i32, 8)
        _, recorder = trace_kernel(rt, tiny, 1, 4, [buf])
        assert recorder.num_lanes == 4
        # Divergent entries still render a full-width 4-lane mask.
        masks = [str(e).split("[")[1].split("]")[0]
                 for e in recorder.entries]
        assert all(len(m) == 4 for m in masks)
        assert any("." in m for m in masks), "kernel diverges"
