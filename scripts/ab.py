#!/usr/bin/env python3
"""Paired A/B of the repository benchmark: this checkout against a revision.

Usage (from the root of a checkout)::

    python3 scripts/ab.py REV [WORKLOAD ...]

REV (any git revision) is the parent; this checkout, uncommitted edits
included, is the change; the workloads default to all in
``BENCHMARK.json``.  REV is checked out with ``git worktree`` into a
temporary directory and this checkout's ``perfbench/`` and
``BENCHMARK.json`` are copied over it, so both sides run the same
benchmark.  Each workload runs ``PAIRS`` pairs of ``perfbench/run.py
--workload W --trace 0``, alternating which side runs first; each
end-to-end metric gets a verdict (``compare``).

Exit status: 1 on a *worse* gated metric, or on any run that failed
operations (``correct: false``) or exited non-zero; 2 when REV cannot
be checked out or its benchmark cannot run, since a gate with nothing
to compare must not pass; 0 otherwise.  The last line of standard
output is one JSON summary.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Pairs of runs per workload.
PAIRS = 10
#: Pairs the change must win to read *better*.
MIN_WINS = 9
#: Simulated counts: reported, not gated here.  Any change to them is a
#: change to the model, which the ``.bench`` pin step in CI gates.
UNGATED = ("sim_cycles",)


def compare(parent, change, bound, better):
    """Medians, wins, spread and verdict of one metric from per-pair
    samples: ``parent[i]`` and ``change[i]`` ran as pair ``i``.
    ``better`` is ``"lower"`` or ``"higher"``, as in ``BENCHMARK.json``.

    - *worse*: the change's median is worse by more than ``bound``;
    - *unresolved*: the parent's spread (IQR over median) is wider than
      ``bound``, unless every change run beats every parent run;
    - *better*: the change wins at least ``MIN_WINS`` pairs and the
      medians differ by more than the parent's IQR;
    - *unchanged*: anything else.
    """
    sign = 1 if better == "lower" else -1  # sign * (x - y) < 0: x better
    parent_med = statistics.median(parent)
    change_med = statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    parent_spread = (q3 - q1) / abs(parent_med) if parent_med else 0.0
    ratios = [c / p for p, c in zip(parent, change) if p]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    if sign * (change_med - parent_med) > bound * abs(parent_med):
        verdict = "worse"
    elif parent_spread > bound and not all(
            sign * (c - p) < 0 for c in change for p in parent):
        verdict = "unresolved"
    elif wins >= MIN_WINS and sign * (parent_med - change_med) > q3 - q1:
        verdict = "better"
    else:
        verdict = "unchanged"
    return {"parent_median": parent_med, "change_median": change_med,
            "ratio": statistics.median(ratios) if ratios else None,
            "wins": wins, "pairs": len(parent),
            "parent_spread": parent_spread, "verdict": verdict}


def summarise(runs, spec):
    """Rows and exit status from the parsed result lines of every pair.

    ``runs`` maps a workload to a list of ``(parent, change)`` pairs of
    perfbench result objects (``correct`` and ``metrics``).
    """
    rows = []
    status = 0
    for workload, pairs in runs.items():
        if not all(p["correct"] and c["correct"] for p, c in pairs):
            status = 1
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "bound": metric["bound"],
                   "gated": name not in UNGATED}
            row.update(compare(
                [p["metrics"][name]["value"] for p, _ in pairs],
                [c["metrics"][name]["value"] for _, c in pairs],
                metric["bound"], metric["better"]))
            if row["gated"] and row["verdict"] == "worse":
                status = 1
            rows.append(row)
    return rows, status


def run_perfbench(root, workload, side):
    """One end-to-end perfbench run in checkout ``root``: its result
    object, or None when the run exited non-zero."""
    done = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    for line in lines:
        if line.lstrip().startswith("FAILED:"):
            print("  %s %s" % (side, line.strip()))
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    result = json.loads(lines[-1])
    print("%s %s run: %s" % (workload, side, "correct" if result["correct"]
                             else "FAILED operations"), flush=True)
    return result


def checkout(rev, where):
    """REV as a detached worktree at ``where``, with this checkout's
    benchmark copied over its own."""
    subprocess.run(["git", "worktree", "add", "--detach", where, rev],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    shutil.rmtree(os.path.join(where, "perfbench"), ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    os.path.join(where, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(os.path.join(ROOT, "BENCHMARK.json"),
                 os.path.join(where, "BENCHMARK.json"))


def run_pairs(base, workloads):
    """``PAIRS`` pairs per workload, alternating which side runs first.
    Returns the pairs so far and the (side, workload) of a run that
    exited non-zero, if one did."""
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for index in range(PAIRS):
            sides = [("parent", base), ("change", ROOT)]
            if index % 2:
                sides.reverse()
            result = {}
            for side, root in sides:
                result[side] = run_perfbench(root, workload, side)
                if result[side] is None:
                    return runs, (side, workload)
            runs[workload].append((result["parent"], result["change"]))
    return runs, None


def main(argv):
    if not argv or argv[0].startswith("-"):
        print("usage: python3 scripts/ab.py REV [WORKLOAD ...]",
              file=sys.stderr)
        return 2
    rev, workloads = argv[0], argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        spec = json.load(stream)
    known = [workload["name"] for workload in spec["workloads"]]
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        print("ab: unknown workload(s) %s (choose from %s)"
              % (", ".join(unknown), ", ".join(known)), file=sys.stderr)
        return 2
    summary = {"rev": rev, "workloads": workloads or known, "pairs": PAIRS}

    def fail(status, message):
        print("ab: %s" % message, file=sys.stderr)
        summary.update(status=status, error=message)
        print(json.dumps(summary))
        return status

    temp = tempfile.mkdtemp(prefix="ab-")
    base = os.path.join(temp, "parent")
    try:
        try:
            checkout(rev, base)
        except (subprocess.CalledProcessError, OSError) as exc:
            return fail(2, "cannot check out %s: %s" % (rev, exc))
        runs, failed = run_pairs(base, summary["workloads"])
        if failed:
            return fail(2 if failed[0] == "parent" else 1,
                        "%s run of %s exited non-zero" % failed)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", base],
                       cwd=ROOT, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        shutil.rmtree(temp, ignore_errors=True)
    rows, status = summarise(runs, spec)
    for row in rows:
        ratio = "-" if row["ratio"] is None else "%.3f" % row["ratio"]
        print("%-14s %-12s parent %-11.5g change %-11.5g ratio %-6s "
              "wins %2d/%d  parent IQR/median %.3f (bound %.2f)  %s%s"
              % (row["workload"], row["metric"], row["parent_median"],
                 row["change_median"], ratio, row["wins"], row["pairs"],
                 row["parent_spread"], row["bound"], row["verdict"],
                 "" if row["gated"] else " (not gated)"))
    summary.update(status=status, rows=rows)
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
