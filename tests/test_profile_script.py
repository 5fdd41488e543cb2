"""``scripts/profile.py``: which simulation each command-line form runs.

The runner's entry points are replaced by recorders, so no simulation
runs; only the argument handling and the call it makes are checked.
"""

import importlib.util
import pathlib

import pytest

from repro.eval import runner

_PATH = (pathlib.Path(__file__).resolve().parent.parent / "scripts" /
         "profile.py")
_SPEC = importlib.util.spec_from_file_location("profile_script", _PATH)
profile_script = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(profile_script)


@pytest.fixture
def calls(monkeypatch):
    made = []
    monkeypatch.setattr(runner, "set_disk_cache", lambda enabled: None)
    monkeypatch.setattr(runner, "clear_cache", lambda: None)
    monkeypatch.setattr(
        runner, "run_suite",
        lambda config, scale=1, jobs=None: made.append(("suite", config)))
    monkeypatch.setattr(
        runner, "run_benchmark",
        lambda name, config, scale=1: made.append((name, config)))
    return made


@pytest.mark.parametrize("argv,expected", [
    ([], ("MatMul", "cheri_opt")),
    (["VecAdd"], ("VecAdd", "cheri_opt")),
    (["VecAdd", "baseline"], ("VecAdd", "baseline")),
    (["--suite"], ("suite", "cheri_opt")),
    (["--suite", "baseline"], ("suite", "baseline")),
    (["--suite", "cheri", "--top", "5"], ("suite", "cheri")),
])
def test_each_form_runs_its_config(argv, expected, calls, capsys):
    assert profile_script.main(argv) == 0
    assert calls == [expected]
    assert "profiling:" in capsys.readouterr().out


def test_positionals_with_suite_are_rejected(calls, capsys):
    with pytest.raises(SystemExit) as exc:
        profile_script.main(["VecAdd", "baseline", "--suite"])
    assert exc.value.code == 2
    assert "--suite CONFIG" in capsys.readouterr().err
    assert calls == []
