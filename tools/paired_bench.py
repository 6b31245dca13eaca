"""Paired benchmark runs of this tree against a parent revision.

    python3 tools/paired_bench.py PARENT_REV --workload W --seed S [--pairs N]

Run from the root of the repository. The parent revision is checked out
with `git worktree add` into a temporary directory, which is removed on
exit, also on error. Each pair runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the run length `run_seconds` of BENCHMARK.json, once in the
parent's tree and once in this one, one after the other; odd pairs run
the parent first, even pairs this tree first, so that a drift of the
host's speed falls on both sides alike. Nothing under perfbench/
is changed.

For every end-to-end metric of BENCHMARK.json the report gives each
side's median and quartiles, the number of pairs this tree wins (a tie
counts for neither side) and whether the claim rule holds: this tree
wins at least nine pairs in ten, and the medians differ, in the better
direction, by more than the parent's interquartile range. Next to it
stands the no-regression rule, against the metric's relative `bound` in
BENCHMARK.json: `ok` when this tree's median is worse than the parent's
by at most the bound times the parent's median, `worse` when by more, and
`unresolved` when the parent's interquartile range is wider than the
bound times its median, where no verdict can be read; but `ok` whenever
every run of this tree reads better than every run of the parent. It
also gives the attempted and failed operations of each side.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against, e.g. HEAD~3")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    return parser.parse_args(argv)


def run_once(tree: Path, args, seconds: float) -> dict:
    """The last JSON line of one untraced perfbench run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list, change: list, better: str) -> dict:
    """Medians, quartiles, wins of the change and the claim rule for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    claim = wins >= 0.9 * len(parent) and sign * (cm - pm) > p3 - p1
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins, "losses": losses, "claim": claim}


def regression(parent: list, change: list, better: str, bound: float) -> str:
    """The no-regression rule for one metric over paired runs: ok, worse or unresolved."""
    sign = 1.0 if better == "higher" else -1.0
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "ok"
    p1, pm, p3 = quartiles(parent)
    if p3 - p1 > bound * abs(pm):
        return "unresolved"
    return "worse" if sign * (statistics.median(change) - pm) < -bound * abs(pm) else "ok"


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(bench["run_seconds"])
    metrics = bench["end_to_end"]
    tmp = Path(tempfile.mkdtemp(prefix="paired-bench-"))
    parent_tree = tmp / "parent"
    runs = {"parent": [], "change": []}
    try:
        subprocess.run(["git", "worktree", "add", "--detach", str(parent_tree), args.parent], cwd=ROOT, check=True, capture_output=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args, seconds))
            print(f"pair {k + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(parent_tree)], cwd=ROOT, capture_output=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {seconds:g}-s runs, {args.parent} vs this tree")
    for side in ("parent", "change"):
        attempted = sum(r["attempted"] for r in runs[side])
        failed = sum(r["failed"] for r in runs[side])
        correct = all(r["correct"] for r in runs[side])
        print(f"  {side}: {attempted} operations, {failed} failed, every output correct: {correct}")
    print(f"  {'metric':<16} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30}  won-lost  claim  bound  regression")
    for m in metrics:
        name = m["name"]
        values = [[r["metrics"][name]["value"] for r in runs[side]] for side in ("parent", "change")]
        s = summarize(*values, m["better"])
        verdict = regression(*values, m["better"], m["bound"])
        cell = lambda t: f"{t[0]:.4g} [{t[1]:.4g}, {t[2]:.4g}]"
        print(
            f"  {name:<16} {cell(s['parent']):>30} {cell(s['change']):>30}  {s['wins']:>4}-{s['losses']:<4}"
            f" {'holds' if s['claim'] else 'no':<6} {m['bound']:<6g} {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
