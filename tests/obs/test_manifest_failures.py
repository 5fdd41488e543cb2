"""Manifest-write failures must be loud: logged once and counted.

Both manifest writers are best-effort by design (a read-only results
directory must never fail an experiment run or a service drain), but a
swallowed failure means silently lost provenance.  These tests pin the
whole visibility chain:

- the suite runner's ``_emit_manifest`` bumps
  ``RUNNER_STATS.manifest_write_failures`` and warns on stderr;
- the serve node's ``ServeMetrics`` carries the counter into its stats
  snapshot and the Prometheus exposition
  (``serve_manifest_write_failures_total``);
- ``repro top`` renders an alert line only when the counter is nonzero;
- ``repro diff`` flags manifests whose banked runner counters
  recorded failures (a gap earlier in that process's trail).
"""

import json

from repro.cli import main
from repro.eval.runner import RUNNER_STATS, _emit_manifest
from repro.serve.metrics import ServeMetrics
from repro.serve.top import render_frame


class TestRunnerEmitManifest:
    def test_write_failure_is_counted_and_warned(self, monkeypatch,
                                                 capsys):
        from repro.obs import manifest as mf

        def boom(*_args, **_kwargs):
            raise OSError("read-only results dir")

        monkeypatch.setattr(mf, "write_manifest", boom)
        before = RUNNER_STATS.snapshot()["manifest_write_failures"]
        assert _emit_manifest({}, "baseline", 1, 0.0) is None
        after = RUNNER_STATS.snapshot()["manifest_write_failures"]
        assert after == before + 1
        err = capsys.readouterr().err
        assert "manifest write failed" in err
        assert "read-only results dir" in err

    def test_swallowed_none_return_is_also_counted(self, monkeypatch,
                                                   capsys):
        # write_manifest eats filesystem errors and returns None; the
        # runner must count that path too, not just raised exceptions.
        from repro.obs import manifest as mf
        monkeypatch.setattr(mf, "write_manifest", lambda *_a, **_k: None)
        before = RUNNER_STATS.snapshot()["manifest_write_failures"]
        assert _emit_manifest({}, "baseline", 1, 0.0) is None
        assert RUNNER_STATS.snapshot()["manifest_write_failures"] \
            == before + 1
        assert "not writable" in capsys.readouterr().err

    def test_success_does_not_count(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_MANIFEST_DIR", str(tmp_path))
        before = RUNNER_STATS.snapshot()["manifest_write_failures"]
        path = _emit_manifest({}, "baseline", 1, 0.0)
        assert path is not None
        after = RUNNER_STATS.snapshot()["manifest_write_failures"]
        assert after == before
        # The failure counter itself travels in the manifest.
        with open(path) as stream:
            manifest = json.load(stream)
        counters = manifest.get("runner_counters") or {}
        assert "manifest_write_failures" in counters


class TestServeMetricsCounter:
    def test_counter_in_snapshot_and_exposition(self):
        metrics = ServeMetrics()
        assert metrics.snapshot()["manifest_write_failures"] == 0
        metrics.manifest_write_failures += 1
        assert metrics.snapshot()["manifest_write_failures"] == 1
        exposition = metrics.registry.exposition()
        assert "serve_manifest_write_failures_total 1" in exposition


class TestTopAlertLine:
    def _stats(self, failures):
        return {"host": "h", "port": 1, "uptime_seconds": 1.0,
                "manifest_write_failures": failures}

    def test_alert_line_when_failures(self):
        frame = render_frame(self._stats(2), [])
        assert "manifest writes failed: 2" in frame

    def test_no_alert_when_clean(self):
        frame = render_frame(self._stats(0), [])
        assert "manifest writes failed" not in frame


class TestDiffAlerts:
    def test_alert_lines_name_only_manifests_with_failures(self):
        from repro.obs.manifest import manifest_failure_alerts
        lines = manifest_failure_alerts([
            ("old.json", {}),
            ("none.json", {"runner_counters": None}),
            ("clean.json", {"runner_counters":
                            {"manifest_write_failures": 0}}),
            ("new.json", {"runner_counters":
                          {"manifest_write_failures": 2}}),
        ])
        assert len(lines) == 1
        assert lines[0].startswith("new.json: 2 manifest write failure(s)")

    def _manifest_file(self, tmp_path, name, failures):
        path = tmp_path / name
        path.write_text(json.dumps({
            "benchmarks": {},
            "runner_counters": {"manifest_write_failures": failures},
        }))
        return str(path)

    def _diff(self, capsys, old, new):
        main(["diff", old, new])
        return capsys.readouterr().out

    def test_alerts_only_for_failing_manifests(self, tmp_path, capsys):
        clean = self._manifest_file(tmp_path, "clean.json", 0)
        broken = self._manifest_file(tmp_path, "broken.json", 3)
        alerts = [line for line in self._diff(capsys, clean, broken)
                  .splitlines() if "failure(s)" in line]
        assert len(alerts) == 1
        assert "broken.json" in alerts[0]
        assert "3 manifest write failure(s)" in alerts[0]

    def test_report_section_appears(self, tmp_path, capsys):
        paths = [self._manifest_file(tmp_path, "a.json", 0),
                 self._manifest_file(tmp_path, "b.json", 1)]
        text = self._diff(capsys, *paths)
        assert "manifest write failures" in text
        text = self._diff(capsys, paths[0], paths[0])
        assert "manifest write failures" not in text
