#!/usr/bin/env python3
"""Interleaved A/B runs of the vpir benchmark: a parent revision
against the working tree.

    python3 tools/perf_ab.py --parent REV --workload W --seeds 1-10 \\
        --out DIR [--trace 0|1]

exports REV with `git archive` into DIR/parent (once; a later call
with the same DIR and REV reuses the export and its build), then for
each seed runs `perfbench/compare.py collect` once in that copy, into
DIR/parent, and once in the working tree, into DIR/change: each side
runs its own benchmark at its own BENCHMARK.json run length and
appends the result line to <W>.jsonl (<W>.trace.jsonl with --trace
1). The side that runs first alternates from seed to seed, so slow
drift of the host's speed falls on both sides alike. At the end it
prints `perfbench/compare.py diff DIR/parent DIR/change` and, for
every metric, how many pairs the change won and whether the medians
differ by more than the parent's interquartile range.

Pairs are the i-th lines of the two files, so calls with new seeds and
the same DIR add pairs to one set. Run it from anywhere inside the
repository; the working tree is the checkout this script lives in.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REV_STAMP = ".perf_ab_rev"

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import compare  # noqa: E402


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export_parent(rev, tree):
    """Export @p rev into @p tree unless it already holds that rev."""
    commit = git("rev-parse", "--verify", rev + "^{commit}")
    stamp = os.path.join(tree, REV_STAMP)
    if os.path.isdir(tree):
        have = open(stamp).read().strip() if os.path.exists(stamp) else ""
        if have != commit:
            sys.exit("perf_ab: %s holds %s, not %s; use a new --out"
                     % (tree, have or "something else", commit))
        return commit
    os.makedirs(tree)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", commit],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", tree], stdin=archive.stdout,
                   check=True)
    if archive.wait() != 0:
        sys.exit("perf_ab: git archive %s failed" % commit)
    with open(stamp, "w") as f:
        f.write(commit + "\n")
    return commit


def report(a, b):
    """Pair statistics of parent results @p a against change results
    @p b, matched line by line."""
    if len(a) != len(b):
        sys.exit("perf_ab: %d parent runs but %d change runs"
                 % (len(a), len(b)))
    bench = compare.benchmark_json()
    print("\n%-26s %6s  %12s %12s  %s" % (
        "metric", "wins", "|medians|", "parent IQR", "gap > IQR"))
    for m in bench["end_to_end"] + bench["per_layer"]:
        metric = m["name"]
        sa, sb = compare.summary(a, metric), compare.summary(b, metric)
        if not (sa and sb):
            continue
        pairs = [(x["metrics"][metric]["value"], y["metrics"][metric]["value"])
                 for x, y in zip(a, b)
                 if metric in x["metrics"] and metric in y["metrics"]]
        wins = sum(1 for pa, ch in pairs
                   if (ch > pa if m["better"] == "higher" else ch < pa))
        gap = abs(sb["median"] - sa["median"])
        iqr = sa["q3"] - sa["q1"]
        print("%-26s %2d/%-3d  %12.5g %12.5g  %s" % (
            metric, wins, len(pairs), gap, iqr,
            "yes" if gap > iqr else "no"))
    bad = [i for i, (x, y) in enumerate(zip(a, b))
           if not (x["correct"] and y["correct"])
           or x["failed"] or y["failed"]]
    print("\nruns with failed operations or wrong results: %s"
          % (", ".join("pair %d" % (i + 1) for i in bad) or "none"))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True,
                    help="revision to compare against (e.g. HEAD~1)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    out = os.path.abspath(args.out)
    parent_tree = os.path.join(out, "parent")
    commit = export_parent(args.parent, parent_tree)
    change_dir = os.path.join(out, "change")
    os.makedirs(change_dir, exist_ok=True)
    print("perf_ab: parent %s, %s, seeds %s"
          % (commit[:12], args.workload, args.seeds), file=sys.stderr)

    sides = [("parent", parent_tree, parent_tree),
             ("change", ROOT, change_dir)]
    for i, seed in enumerate(compare.seeds(args.seeds)):
        for side, tree, dest in sides if i % 2 == 0 else sides[::-1]:
            p = subprocess.run(
                [sys.executable, os.path.join(tree, "perfbench", "compare.py"),
                 "collect", dest, "--workloads", args.workload,
                 "--seeds", str(seed), "--trace", str(args.trace)])
            if p.returncode != 0:
                sys.exit("perf_ab: %s seed %d failed (exit %d)"
                         % (side, seed, p.returncode))

    sys.stdout.flush()
    subprocess.run([sys.executable, os.path.join(ROOT, "perfbench",
                                                 "compare.py"),
                    "diff", parent_tree, change_dir], cwd=ROOT)
    key = (args.workload, bool(args.trace))
    report(compare.load(parent_tree)[key], compare.load(change_dir)[key])


if __name__ == "__main__":
    main()
