"""``scripts/ab.py``: its verdict logic and the driver around it.

The verdict cases run no subprocess: ``summarise`` takes the parsed
perfbench result lines of each pair, so each case builds them from
lists of values.  The driver cases replace perfbench with a stub
``perfbench/run.py`` that prints one result line, in a throwaway git
repository where a real checkout is needed.
"""

import importlib.util
import json
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ab.py"
_SPEC = importlib.util.spec_from_file_location("ab", _PATH)
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)

SPEC = {"end_to_end": [
    {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "sim_kips", "unit": "kinstr/s", "better": "higher",
     "bound": 0.25},
    {"name": "sim_cycles", "unit": "cycles", "better": "lower",
     "bound": 0.01},
]}

#: Ten parent runs of ``cpu_s`` with a spread (IQR over median) of ~0.05.
PARENT = [5.00, 5.10, 4.95, 5.20, 5.05, 4.90, 5.15, 5.02, 4.98, 5.08]


def _result(cpu_s, sim_kips=100.0, sim_cycles=994384, correct=True):
    return {"correct": correct, "metrics": {
        "cpu_s": {"value": cpu_s, "unit": "s"},
        "sim_kips": {"value": sim_kips, "unit": "kinstr/s"},
        "sim_cycles": {"value": sim_cycles, "unit": "cycles"}}}


def _pairs(parent, change):
    return [(_result(p), _result(c)) for p, c in zip(parent, change)]


def _verdicts(runs):
    rows, status = ab.summarise(runs, SPEC)
    return {row["metric"]: row["verdict"] for row in rows}, status


def test_noise_inside_the_bound_is_unchanged():
    change = [value * (1.02 if i % 2 else 0.98)
              for i, value in enumerate(reversed(PARENT))]
    verdicts, status = _verdicts({"suite-baseline": _pairs(PARENT, change)})
    assert verdicts == {"cpu_s": "unchanged", "sim_kips": "unchanged",
                        "sim_cycles": "unchanged"}
    assert status == 0


def test_thirty_percent_slower_in_every_pair_is_worse():
    change = [value * 1.30 for value in PARENT]
    rows, status = ab.summarise({"suite-baseline": _pairs(PARENT, change)},
                                SPEC)
    cpu = [row for row in rows if row["metric"] == "cpu_s"][0]
    assert cpu["verdict"] == "worse"
    assert cpu["wins"] == 0
    assert cpu["ratio"] == pytest.approx(1.30)
    assert status == 1


def test_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [3.0, 7.0, 4.0, 6.0, 5.0, 3.5, 6.5, 4.5, 5.5, 5.0]
    change = [value * 0.95 for value in parent]
    row = ab.compare(parent, change, 0.25, "lower")
    assert row["parent_spread"] > 0.25
    assert row["verdict"] == "unresolved"


def test_wide_spread_still_resolves_when_every_change_run_wins():
    parent = [3.0, 7.0, 4.0, 6.0, 5.0, 3.5, 6.5, 4.5, 5.5, 5.0]
    change = [1.0] * 10
    assert ab.compare(parent, change, 0.25, "lower")["verdict"] == "better"


def test_nine_wins_and_a_gap_beyond_the_iqr_is_better():
    change = [value * 0.85 for value in PARENT]
    change[3] = PARENT[3] * 1.01  # one pair lost
    row = ab.compare(PARENT, change, 0.25, "lower")
    assert row["wins"] == 9
    assert row["verdict"] == "better"


def test_nine_wins_inside_the_iqr_is_unchanged():
    change = [value * 0.99 for value in PARENT]
    change[3] = PARENT[3] * 1.01
    row = ab.compare(PARENT, change, 0.25, "lower")
    assert row["wins"] == 9
    assert row["verdict"] == "unchanged"


@pytest.mark.parametrize("side", ["parent", "change"])
def test_incorrect_run_on_either_side_fails(side):
    pairs = _pairs(PARENT, PARENT)
    parent, change = pairs[4]
    broken = _result(5.0, correct=False)
    pairs[4] = (broken, change) if side == "parent" else (parent, broken)
    verdicts, status = _verdicts({"serve-mixed": pairs})
    assert set(verdicts.values()) == {"unchanged"}
    assert status == 1


def test_higher_is_better_metrics_are_oriented():
    parent = [100.0 + i for i in range(10)]
    up = ab.compare(parent, [value * 1.5 for value in parent], 0.25,
                    "higher")
    down = ab.compare(parent, [value * 0.5 for value in parent], 0.25,
                      "higher")
    assert (up["verdict"], up["wins"]) == ("better", 10)
    assert (down["verdict"], down["wins"]) == ("worse", 0)
    pairs = [(_result(5.0, sim_kips=p), _result(5.0, sim_kips=p * 0.5))
             for p in parent]
    verdicts, status = _verdicts({"suite-cheri": pairs})
    assert verdicts["sim_kips"] == "worse"
    assert status == 1


def test_simulated_counts_are_reported_not_gated():
    pairs = [(_result(p), _result(p, sim_cycles=2 * 994384))
             for p in PARENT]
    verdicts, status = _verdicts({"suite-cheri": pairs})
    assert verdicts["sim_cycles"] == "worse"
    assert status == 0


# -- the driver: arguments, run order, failures and the checkout --------

def _summary(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("argv", [[], ["--help"]])
def test_no_revision_prints_usage_and_exits_2(argv, capsys):
    assert ab.main(argv) == 2
    assert "usage" in capsys.readouterr().err


def test_unknown_workload_exits_2_before_any_checkout(monkeypatch, capsys):
    monkeypatch.setattr(ab, "checkout",
                        lambda *_args: pytest.fail("checked out"))
    assert ab.main(["HEAD", "suite-baseline", "no-such-workload"]) == 2
    assert "no-such-workload" in capsys.readouterr().err


def test_base_that_cannot_be_checked_out_exits_2(monkeypatch, capsys):
    def refuse(rev, where):
        raise subprocess.CalledProcessError(128, ["git", "worktree", "add"])

    monkeypatch.setattr(ab, "checkout", refuse)
    monkeypatch.setattr(ab, "run_pairs", lambda *_args: pytest.fail("ran"))
    assert ab.main(["no-such-rev", "suite-baseline"]) == 2
    summary = _summary(capsys)
    assert summary["status"] == 2
    assert "no-such-rev" in summary["error"]


def test_pairs_alternate_which_side_runs_first(monkeypatch):
    calls = []

    def run(root, workload, side):
        calls.append((side, root))
        return _result(5.0)

    monkeypatch.setattr(ab, "run_perfbench", run)
    runs, failed = ab.run_pairs("/parent-checkout", ["suite-baseline"])
    assert failed is None
    assert len(runs["suite-baseline"]) == ab.PAIRS
    sides = [side for side, _ in calls]
    assert sides[:4] == ["parent", "change", "change", "parent"]
    assert sides.count("parent") == sides.count("change") == ab.PAIRS
    assert {root for side, root in calls if side == "parent"} \
        == {"/parent-checkout"}
    assert {root for side, root in calls if side == "change"} == {ab.ROOT}


@pytest.mark.parametrize("side, status", [("parent", 2), ("change", 1)])
def test_a_run_that_exits_non_zero_stops_the_gate(side, status, monkeypatch,
                                                  capsys):
    monkeypatch.setattr(ab, "checkout", lambda rev, where: None)
    monkeypatch.setattr(
        ab, "run_perfbench",
        lambda root, workload, who: None if who == side else _result(5.0))
    assert ab.main(["HEAD", "suite-baseline"]) == status
    summary = _summary(capsys)
    assert summary["status"] == status
    assert "%s run of suite-baseline" % side in summary["error"]


def _stub_perfbench(root, body):
    (root / "perfbench").mkdir(parents=True, exist_ok=True)
    (root / "perfbench" / "run.py").write_text(body)


def test_run_perfbench_parses_the_last_line_and_echoes_failures(tmp_path,
                                                                capsys):
    line = json.dumps(_result(5.0, correct=False))
    _stub_perfbench(tmp_path, "print('suite-cheri: 3 ops')\n"
                              "print('FAILED: op 2 raised KeyError')\n"
                              "print(%r)\n" % line)
    result = ab.run_perfbench(str(tmp_path), "suite-cheri", "change")
    assert result == json.loads(line)
    out = capsys.readouterr().out
    assert "change FAILED: op 2 raised KeyError" in out
    assert "FAILED operations" in out


def test_run_perfbench_is_none_when_the_run_exits_non_zero(tmp_path,
                                                          capsys):
    _stub_perfbench(tmp_path, "import sys\n"
                              "sys.stderr.write('no such workload\\n')\n"
                              "sys.exit(3)\n")
    assert ab.run_perfbench(str(tmp_path), "suite-cheri", "parent") is None
    assert "no such workload" in capsys.readouterr().err


#: A perfbench stub whose ``cpu_s`` is read from ``speed.txt`` at the
#: root of the checkout it runs in, outside ``perfbench/``.
_SPEED_STUB = """import json
speed = float(open("speed.txt").read())
metrics = {name: {"value": speed if name == "cpu_s" else 1.0, "unit": ""}
           for name in ("cpu_s", "sim_kips", "sim_cycles")}
print(json.dumps({"correct": True, "metrics": metrics}))
"""


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@test",
                    "-c", "commit.gpgsign=false", *args], cwd=root,
                   check=True, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL)


@pytest.fixture
def repo(tmp_path, monkeypatch):
    """A git repository with a stub benchmark, committed at 5.0 s."""
    root = tmp_path / "repo"
    _stub_perfbench(root, "raise SystemExit('the committed benchmark')\n")
    spec = dict(SPEC, workloads=[{"name": "suite-baseline"}])
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    (root / "speed.txt").write_text("5.0")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "base")
    monkeypatch.setattr(ab, "ROOT", str(root))
    return root


def test_checkout_runs_this_checkouts_benchmark_at_rev(repo, tmp_path):
    _stub_perfbench(repo, _SPEED_STUB)  # uncommitted
    (repo / "speed.txt").write_text("9.0")  # uncommitted
    where = tmp_path / "parent"
    ab.checkout("HEAD", str(where))
    try:
        assert (where / "perfbench" / "run.py").read_text() == _SPEED_STUB
        assert (where / "speed.txt").read_text() == "5.0"
    finally:
        _git(repo, "worktree", "remove", "--force", str(where))
    with pytest.raises(subprocess.CalledProcessError):
        ab.checkout("no-such-rev", str(tmp_path / "missing"))


@pytest.mark.parametrize("speed, status, verdict",
                         [("5.0", 0, "unchanged"), ("6.5", 1, "worse")])
def test_end_to_end_against_the_committed_revision(repo, capsys, speed,
                                                   status, verdict):
    _stub_perfbench(repo, _SPEED_STUB)
    (repo / "speed.txt").write_text(speed)
    assert ab.main(["HEAD"]) == status
    summary = _summary(capsys)
    assert summary["status"] == status
    cpu = [row for row in summary["rows"] if row["metric"] == "cpu_s"][0]
    assert (cpu["parent_median"], cpu["change_median"]) == (5.0,
                                                            float(speed))
    assert cpu["verdict"] == verdict
    worktrees = subprocess.run(["git", "worktree", "list"], cwd=repo,
                               stdout=subprocess.PIPE, text=True).stdout
    assert len(worktrees.strip().splitlines()) == 1  # removed again
