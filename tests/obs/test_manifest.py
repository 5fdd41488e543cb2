"""Run manifests: emission from run_suite, loading, and regression diff."""

import copy
import json
import os

import pytest

from repro.eval import runner
from repro.obs import manifest as mf

GEOMETRY = dict(num_warps=4, num_lanes=4)
BENCHES = ("VecAdd", "Reduce")


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIMCACHE_DIR", str(tmp_path / "simcache"))
    monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path / "manifests"))
    monkeypatch.setattr(runner, "BENCHMARK_NAMES", BENCHES)
    runner.clear_cache()
    yield tmp_path
    runner.clear_cache()


def _suite_manifest(tmp_path, config="cheri_opt"):
    runner.run_suite(config, jobs=1, **GEOMETRY)
    # The test geometry overrides the evaluation one.
    path = mf.default_path(config, 1, overrides=GEOMETRY)
    assert os.path.dirname(path) == str(tmp_path / "manifests")
    assert os.path.exists(path), "run_suite must emit a manifest"
    return mf.load_manifest(path), path


class TestEmission:
    def test_run_suite_writes_manifest_with_full_stats(self, isolated):
        manifest, _ = _suite_manifest(isolated)
        assert manifest["schema"] == mf.SCHEMA
        assert manifest["config"] == "cheri_opt"
        assert manifest["mode"] == "purecap"
        assert manifest["geometry"] == GEOMETRY
        assert set(manifest["benchmarks"]) == set(BENCHES)
        for record in manifest["benchmarks"].values():
            assert record["cache_source"] in ("sim", "disk", "memo")
            assert record["stats"]["cycles"] > 0
            assert "ipc" in record["stats"]
        assert manifest["sources_digest"]
        assert manifest["wall_seconds"] >= 0

    def test_manifest_stats_match_runner_results(self, isolated):
        results = runner.run_suite("baseline", jobs=1, **GEOMETRY)
        manifest, _ = _suite_manifest(isolated, config="baseline")
        for name, result in results.items():
            assert (manifest["benchmarks"][name]["stats"]["cycles"]
                    == result.stats.cycles)

    def test_set_manifests_false_disables_emission(self, isolated,
                                                   monkeypatch):
        runner.set_manifests(False)
        try:
            runner.run_suite("baseline", jobs=1, **GEOMETRY)
            assert not os.path.exists(str(isolated / "manifests"))
        finally:
            runner.set_manifests(True)

    def test_write_failure_is_silent(self, isolated, monkeypatch):
        # Point the manifest dir somewhere unwritable: runs still succeed.
        monkeypatch.setenv("REPRO_MANIFEST_DIR",
                           "/proc/definitely/not/writable")
        results = runner.run_suite("baseline", jobs=1, **GEOMETRY)
        assert set(results) == set(BENCHES)


class TestManifestPaths:
    """One file per distinct configuration: overrides that change the
    named configuration key the filename; plain configs keep
    ``<config>_s<scale>[_O<n>].json``."""

    def test_plain_and_default_valued_overrides_keep_the_plain_name(
            self, isolated):
        for overrides in ({}, {"num_warps": 32, "vrf_fraction": 0.375}):
            path = runner._emit_manifest({}, "baseline", 1, 0.0, overrides)
            assert os.path.basename(path) == "baseline_s1.json"
        # opt is not an override of the filename: -O1 has its own suffix.
        path = runner._emit_manifest({}, "baseline", 1, 0.0, {"opt": 1})
        assert os.path.basename(path) == "baseline_s1.json"
        assert os.path.basename(mf.default_path("baseline", 1, 1)) == \
            "baseline_s1_O1.json"

    def test_table2_vrf_sizes_get_one_file_each(self, isolated):
        fractions = (1.0, 0.5, 0.375, 0.25, 0.125, 0.0625)
        paths = [runner._emit_manifest({}, "baseline", 1, 0.0,
                                       {"vrf_fraction": f})
                 for f in fractions]
        assert len(set(paths)) == len(fractions)
        assert os.path.basename(paths[2]) == "baseline_s1.json"
        overridden = mf.load_manifest(paths[0])
        assert overridden["overrides"] == {"vrf_fraction": 1.0}
        assert os.path.basename(paths[0]).startswith("baseline_s1_")

    def test_override_order_does_not_matter(self):
        assert mf.default_path("cheri_opt", 1, 1, {"a": 1, "b": 2}) == \
            mf.default_path("cheri_opt", 1, 1, {"b": 2, "a": 1})


class TestDiff:
    def test_identical_manifests_have_no_regressions(self, isolated):
        manifest, _ = _suite_manifest(isolated)
        rows = mf.diff_manifests(manifest, manifest)
        assert rows and not any(r["regressed"] for r in rows)

    def test_growth_beyond_threshold_flags_regression(self, isolated):
        manifest, _ = _suite_manifest(isolated)
        worse = copy.deepcopy(manifest)
        stats = worse["benchmarks"]["VecAdd"]["stats"]
        stats["cycles"] = int(stats["cycles"] * 1.5)
        rows = mf.diff_manifests(manifest, worse, threshold=0.02)
        flagged = [r for r in rows if r["regressed"]]
        assert [(r["benchmark"], r["metric"]) for r in flagged] \
            == [("VecAdd", "cycles")]
        # The reverse direction (an improvement) is not a regression.
        rows = mf.diff_manifests(worse, manifest, threshold=0.02)
        assert not any(r["regressed"] for r in rows)

    def test_growth_within_threshold_passes(self, isolated):
        manifest, _ = _suite_manifest(isolated)
        near = copy.deepcopy(manifest)
        stats = near["benchmarks"]["VecAdd"]["stats"]
        stats["cycles"] = int(stats["cycles"] * 1.01)
        rows = mf.diff_manifests(manifest, near, threshold=0.02)
        assert not any(r["regressed"] for r in rows)

    def test_missing_benchmark_is_flagged(self, isolated):
        manifest, _ = _suite_manifest(isolated)
        short = copy.deepcopy(manifest)
        del short["benchmarks"]["Reduce"]
        rows = mf.diff_manifests(manifest, short)
        assert any(r["metric"] == "<missing>" and r["regressed"]
                   for r in rows)

    def test_render_diff_mentions_regressions(self, isolated):
        manifest, _ = _suite_manifest(isolated)
        worse = copy.deepcopy(manifest)
        worse["benchmarks"]["VecAdd"]["stats"]["cycles"] *= 2
        text = mf.render_diff(mf.diff_manifests(manifest, worse))
        assert "REGRESSED" in text and "cycles" in text


class TestDiffEdgeCases:
    """Zero baselines and schema drift: the diff must stay finite and
    the CLI must exit cleanly when a metric exists in only one manifest."""

    def test_zero_baseline_has_no_infinite_ratio(self, isolated):
        manifest, _ = _suite_manifest(isolated)
        old = copy.deepcopy(manifest)
        new = copy.deepcopy(manifest)
        old["benchmarks"]["VecAdd"]["stats"]["dram_spill_bytes"] = 0
        new["benchmarks"]["VecAdd"]["stats"]["dram_spill_bytes"] = 128
        rows = mf.diff_manifests(old, new)
        [row] = [r for r in rows if r["metric"] == "dram_spill_bytes"
                 and r["benchmark"] == "VecAdd"]
        # Growth from zero is a regression, but with no finite ratio.
        assert row["regressed"] and row["ratio"] is None
        text = mf.render_diff(rows)
        assert "inf" not in text and "+new" in text

    def test_zero_on_both_sides_is_unchanged(self, isolated):
        manifest, _ = _suite_manifest(isolated)
        both = copy.deepcopy(manifest)
        both["benchmarks"]["VecAdd"]["stats"]["dram_spill_bytes"] = 0
        rows = mf.diff_manifests(both, both)
        [row] = [r for r in rows if r["metric"] == "dram_spill_bytes"
                 and r["benchmark"] == "VecAdd"]
        assert not row["regressed"] and row["delta"] == 0
        mf.render_diff(rows)  # must not raise on the None ratio

    def test_metric_in_only_one_manifest_is_a_note_not_a_regression(
            self, isolated):
        manifest, _ = _suite_manifest(isolated)
        short = copy.deepcopy(manifest)
        del short["benchmarks"]["VecAdd"]["stats"]["dram_spill_bytes"]
        for old, new, side in ((manifest, short, "new"),
                               (short, manifest, "old")):
            rows = mf.diff_manifests(old, new)
            [row] = [r for r in rows if r["metric"] == "dram_spill_bytes"
                     and r["benchmark"] == "VecAdd"]
            assert not row["regressed"]
            assert row["note"] == "only in %s" % ("old" if side == "new"
                                                  else "new")
            assert "only in" in mf.render_diff(rows)

    def test_cli_diff_exits_zero_on_schema_drift(self, isolated, tmp_path,
                                                 capsys):
        from repro.cli import main
        manifest, path = _suite_manifest(isolated)
        short = copy.deepcopy(manifest)
        del short["benchmarks"]["VecAdd"]["stats"]["dram_spill_bytes"]
        short_path = mf.write_manifest(short, str(tmp_path / "short.json"))
        assert main(["diff", path, short_path]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_cli_diff_exits_one_on_regression(self, isolated, tmp_path,
                                              capsys):
        from repro.cli import main
        manifest, path = _suite_manifest(isolated)
        worse = copy.deepcopy(manifest)
        worse["benchmarks"]["VecAdd"]["stats"]["cycles"] *= 2
        worse_path = mf.write_manifest(worse, str(tmp_path / "worse.json"))
        assert main(["diff", path, worse_path]) == 1
        assert "REGRESSED" in capsys.readouterr().out


class TestRoundTrip:
    def test_write_and_load(self, isolated, tmp_path):
        manifest, _ = _suite_manifest(isolated)
        path = mf.write_manifest(manifest, str(tmp_path / "copy.json"))
        loaded = mf.load_manifest(path)
        assert loaded == json.loads(json.dumps(manifest))

    def test_load_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            mf.load_manifest(str(path))
