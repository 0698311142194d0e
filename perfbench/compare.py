#!/usr/bin/env python3
"""Collect and compare result sets of the vpir benchmark.

    python3 perfbench/compare.py collect DIR [--workloads W ...]
        [--seeds 1-10] [--trace 0|1]

runs perfbench/run.py once per workload and seed (--seconds from
BENCHMARK.json) and appends each run's result line to
DIR/<workload>.jsonl (DIR/<workload>.trace.jsonl with --trace 1).

    python3 perfbench/compare.py diff A [B]

prints one row per workload x metric: median and quartiles of each set,
the change from A to B as a share of A's median (positive = worse), the
metric's bound and a verdict. A metric whose spread (interquartile
range over median) exceeds its bound in either set is "unresolved":
the sets cannot tell a change of that size from noise. With one set,
only its spreads are checked. Per-layer metrics have no bound; their
rows show the change only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def collect(args):
    bench = benchmark_json()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    os.makedirs(args.dir, exist_ok=True)
    for w in names:
        path = os.path.join(args.dir, w + (".trace" if args.trace else "")
                            + ".jsonl")
        for s in seeds(args.seeds):
            cmd = bench["command"] + [
                "--workload", w, "--seed", str(s), "--seconds",
                str(bench["run_seconds"]), "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit("compare: %s seed %d failed (exit %d)"
                         % (w, s, p.returncode))
            result = json.loads(lines[-1])
            with open(path, "a") as f:
                f.write(json.dumps(result) + "\n")
            print("%s seed %d: correct=%s" % (w, s, result["correct"]),
                  file=sys.stderr)


def load(dir_):
    """{(workload, trace): [result, ...]} of one result set."""
    sets = {}
    for name in sorted(os.listdir(dir_)):
        if not name.endswith(".jsonl"):
            continue
        stem = name[:-len(".jsonl")]
        trace = stem.endswith(".trace")
        workload = stem[:-len(".trace")] if trace else stem
        with open(os.path.join(dir_, name)) as f:
            sets[(workload, trace)] = [json.loads(l) for l in f if l.strip()]
    return sets


def summary(results, metric):
    vals = [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]
    if len(vals) < 2:
        return None
    q1, med, q3 = statistics.quantiles(vals, n=4)
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "n": len(vals)}


def diff(args):
    bench = benchmark_json()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    a = load(args.a)
    b = load(args.b) if args.b else {}
    print("%-7s %-26s %-34s %-34s %8s %6s  %s" % (
        "work", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "change", "bound", "verdict"))
    bad = False
    for (workload, trace) in sorted(a):
        decl = layer if trace else e2e
        for metric, m in decl.items():
            sa = summary(a[(workload, trace)], metric)
            rb = b.get((workload, trace))
            sb = summary(rb, metric) if rb else None
            if not sa:
                continue
            bound = m.get("bound")
            cols = ["%.5g [%.5g, %.5g]" % (s["median"], s["q1"], s["q3"])
                    if s else "-" for s in (sa, sb)]
            change = ""
            verdict = ""
            if bound is not None and (sa["spread"] > bound or
                                      (sb and sb["spread"] > bound)):
                verdict = "unresolved (spread %.3f%s)" % (
                    sa["spread"], " / %.3f" % sb["spread"] if sb else "")
            if sb and sa["median"]:
                c = (sb["median"] - sa["median"]) / abs(sa["median"])
                if m["better"] == "higher":
                    c = -c
                change = "%+.3f" % c
                if not verdict and bound is not None:
                    verdict = ("worse" if c > bound else
                               "better" if c < -bound else "same")
            elif not verdict and bound is not None:
                verdict = "spread %.3f ok" % sa["spread"]
            bad |= verdict.startswith(("unresolved", "worse"))
            print("%-7s %-26s %-34s %-34s %8s %6s  %s" % (
                workload, metric, cols[0], cols[1], change,
                "" if bound is None else "%.3f" % bound, verdict))
    sys.exit(1 if bad else 0)


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=[0, 1], default=0)
    d = sub.add_parser("diff")
    d.add_argument("a")
    d.add_argument("b", nargs="?")
    args = ap.parse_args()
    collect(args) if args.cmd == "collect" else diff(args)


if __name__ == "__main__":
    main()
