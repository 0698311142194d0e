#!/usr/bin/env python3
"""The suite workload of the vpir benchmark: run every harness of the
full reproduction, one process at a time, and print one JSON object of
raw measurements. perfbench/run.py starts this in its own process so
that the children's CPU time and peak memory cover the harnesses only.

    python3 perfbench/suite.py --bin DIR --out DIR --seed N --passes P \\
        --insts N --jobs J --trace 0|1

Each pass runs the 16 harnesses in an order shuffled by --seed, with
VPIR_JOBS=J, VPIR_BENCH_INSTS=N and no result cache. Stdout of each
harness goes to OUT/pass<k>/<harness>.out and its sweep timing JSON
next to it. With --trace 1, untraced and traced passes alternate; a
traced pass sets VPIR_PROFILE=1 and records one span per harness
process, written to OUT/spans-<seed>.json.
"""

import argparse
import hashlib
import json
import os
import random
import resource
import subprocess
import sys
import time

from run import HARNESSES


def cpu_children():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_harness(name, args, out_dir, traced, t_start, spans):
    timing = os.path.join(out_dir, name + ".timing.json")
    stdout = os.path.join(out_dir, name + ".out")
    if os.path.exists(timing):
        os.remove(timing)
    env = dict(os.environ, VPIR_JOBS=str(args.jobs),
               VPIR_BENCH_INSTS=str(args.insts), VPIR_TIMING_JSON=timing)
    if traced:
        env["VPIR_PROFILE"] = "1"
    t0 = time.monotonic()
    with open(stdout, "wb") as f:
        p = subprocess.run([os.path.join(args.bin, name)], stdout=f,
                           stderr=subprocess.DEVNULL, env=env, cwd=out_dir,
                           timeout=120)
    t1 = time.monotonic()
    if traced:
        spans.append({"name": "harness", "subject": name,
                      "t0_s": t0 - t_start, "t1_s": t1 - t_start})
    with open(stdout, "rb") as f:
        sha = hashlib.sha256(f.read()).hexdigest()
    rec = {"name": name, "rc": p.returncode, "wall_s": t1 - t0,
           "stdout": stdout, "stdout_sha256": sha, "cells": [],
           "program_builds": 0, "snapshot_builds": 0}
    # The analysis harnesses (fig8-10) and bench_table1 run no sweep
    # cells and write no timing JSON.
    if os.path.exists(timing):
        with open(timing) as f:
            t = json.load(f)
        rec["program_builds"] = t["warm_cache"]["program_builds"]
        rec["snapshot_builds"] = t["warm_cache"]["snapshot_builds"]
        for c in t["cells"]:
            cell = {k: c[k] for k in ("workload", "params_hash", "wall_s",
                                      "setup_s", "run_s", "insts")}
            if traced:
                cell["prof"] = c["profile"]
            rec["cells"].append(cell)
    return rec


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--insts", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    order = list(HARNESSES)
    random.Random(args.seed).shuffle(order)
    t_start = time.monotonic()
    spans = []
    passes = []
    for k in range(args.passes):
        for traced in ([False, True] if args.trace else [False]):
            out_dir = os.path.join(args.out, "pass%d%s"
                                   % (k, "t" if traced else ""))
            os.makedirs(out_dir, exist_ok=True)
            c0 = cpu_children()
            t0 = time.monotonic()
            hs = [run_harness(h, args, out_dir, traced, t_start, spans)
                  for h in order]
            passes.append({"traced": traced, "wall_s": time.monotonic() - t0,
                           "cpu_s": cpu_children() - c0, "harnesses": hs})
    if args.trace:
        with open(os.path.join(args.out, "spans-%d.json" % args.seed),
                  "w") as f:
            json.dump(spans, f, indent=0)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    json.dump({"jobs": args.jobs, "peak_rss_mb": peak_kb / 1024.0,
               "passes": passes}, sys.stdout)
    print()


if __name__ == "__main__":
    main()
