#!/usr/bin/env python3
"""The vpir benchmark: build the simulator from source, run one
workload, check its outputs against the committed reference, and print
its metrics.

    python3 perfbench/run.py --workload table1|stall|suite|limit \\
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/. The
last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json and
--trace 1 the per-layer ones. The seed only shuffles the order of
cells (or harnesses); the work itself is fixed.

    python3 perfbench/run.py --make-reference

rewrites perfbench/reference/ from the current code. The committed
reference was made from the seed code; regenerate it only for a change
that is meant to alter simulated results.

See perfbench/README.md for why each workload exists.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
OUT = os.path.join(BUILD_ROOT, "perfbench-out")
REFERENCE = os.path.join(HERE, "reference")
VPIRBENCH = os.path.join(BUILD, "vpirbench")
BENCH_DIR = os.path.join(BUILD, "vpir", "bench")

# Every harness of the full reproduction. bench_micro is left out: its
# run length is time-based, so its stdout is not a fixed output.
HARNESSES = [
    "bench_table1", "bench_table2", "bench_table3", "bench_table4",
    "bench_table5", "bench_table6", "bench_fig3", "bench_fig4",
    "bench_fig5", "bench_fig6", "bench_fig7", "bench_fig8", "bench_fig9",
    "bench_fig10", "bench_ablation", "bench_hybrid",
]

# Fixed work per workload: the per-cell instruction budget and the
# length of one pass on the seed code (4-core x86 host), from which
# --seconds sets the number of passes.
WORKLOADS = {
    "table1": {"insts": 50000, "pass_s": 2.0},
    "stall": {"insts": 100000, "pass_s": 1.1},
    "limit": {"insts": 2000000, "pass_s": 1.2},
    "suite": {"insts": 50000, "pass_s": 4.5},
}

RUN_LIMIT_S = 170  # the whole run, build excluded
BUILD_LIMIT_S = 700  # a first run, build included, must end in 900 s

# name -> (unit, better). The order is the order BENCHMARK.json lists.
END_TO_END = {
    "sim_mips": ("Minst/s", "higher"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "cell_p50_ms": ("ms", "lower"),
    "cell_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
STAGES = ["fetch", "dispatch", "issue", "execute", "commit"]
PER_LAYER = {
    "core.ns_per_inst": ("ns", "lower"),
    "core.ns_per_cycle": ("ns", "lower"),
    "core.idle_skip_frac": ("frac", "higher"),
    **{"core.%s_ns" % s: ("ns", "lower") for s in STAGES},
    **{"core.%s_share" % s: ("frac", "lower") for s in STAGES},
    "core.exec_per_commit": ("ratio", "lower"),
    "core.squash_exec_frac": ("frac", "lower"),
    "vp.predict_update_ns": ("ns", "lower"),
    "vp.pred_frac": ("frac", "higher"),
    "vp.correct_frac": ("frac", "higher"),
    "reuse.probe_insert_ns": ("ns", "lower"),
    "reuse.hit_frac": ("frac", "higher"),
    "reuse.addr_hit_frac": ("frac", "higher"),
    "mem.access_ns": ("ns", "lower"),
    "mem.icache_miss_frac": ("frac", "lower"),
    "mem.dcache_miss_frac": ("frac", "lower"),
    "bpred.predict_update_ns": ("ns", "lower"),
    "bpred.mispred_frac": ("frac", "lower"),
    "emu.step_ns": ("ns", "lower"),
    "emu.warmup_ms": ("ms", "lower"),
    "redundancy.ns_per_inst": ("ns", "lower"),
    "workload.build_ms": ("ms", "lower"),
    "sim.setup_ms": ("ms", "lower"),
    "sim.program_builds": ("count", "lower"),
    "sim.snapshot_builds": ("count", "lower"),
    "sweep.cells_simulated": ("count", "lower"),
    "sweep.dup_frac": ("frac", "lower"),
    "sweep.busy_frac": ("frac", "higher"),
    "model.paper_err_pp": ("pp", "lower"),
    "trace.sim_mips_untraced": ("Minst/s", "higher"),
    "trace.sim_mips_traced": ("Minst/s", "higher"),
    "trace.overhead_frac": ("frac", "lower"),
}


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def clean_env():
    """The caller's environment minus every VPIR_* knob, so that no
    stray setting changes what is measured."""
    return {k: v for k, v in os.environ.items() if not k.startswith("VPIR_")}


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("perfbench: no vpir sources next to perfbench/; run from "
              "a full checkout", file=sys.stderr)
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    steps = [["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1),
              "--target", "perfbench_all"]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    deadline = time.monotonic() + BUILD_LIMIT_S
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(
                    cmd, stdout=log, stderr=subprocess.STDOUT,
                    timeout=max(1, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))


def run_json(cmd, deadline, raw):
    """Run a child that prints one JSON object, keeping a copy in
    OUT/raw; stderr passes through. A child that overruns the deadline
    is killed together with every process it started."""
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=clean_env(),
                         start_new_session=True)
    try:
        stdout, _ = p.communicate(
            timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("timed out: " + " ".join(cmd))
    if p.returncode != 0:
        die("exit %d: %s" % (p.returncode, " ".join(cmd)))
    with open(os.path.join(OUT, raw), "wb") as f:
        f.write(stdout)
    return json.loads(stdout)


# ------------------------------------------------------------ statistics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail_percentile(n):
    """Highest whole percentile with at least 10 samples above it
    (nearest rank); 50 when there are too few samples for that."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def nearest_rank(xs, p):
    s = sorted(xs)
    return s[max(0, math.ceil(p * len(s) / 100) - 1)]


# ------------------------------------------------------------- workloads

def check_cells(passes, ref):
    """Count cells that failed or whose digest differs from the
    reference. Returns (attempted, failed)."""
    attempted = failed = 0
    for p in passes:
        for c in p["cells"]:
            attempted += 1
            want = ref["digests"].get(c["key"])
            if c["failed"] or c["digest"] != want:
                failed += 1
                print("perfbench: %s: digest %s, reference %s"
                      % (c["key"], c["digest"] or "none", want),
                      file=sys.stderr)
    return attempted, failed


def faster_half(items, key):
    return sorted(items, key=key)[:math.ceil(len(items) / 2)]


def kept_cells(passes):
    """Each cell's faster half of its runs across the passes. The host
    is shared, and a busy neighbour slows whole stretches of a run by
    up to 2x; a cell's faster runs are the ones it left alone."""
    runs = {}
    for p in passes:
        for c in p["cells"]:
            if not c.get("failed"):
                runs.setdefault(c["key"], []).append(c)
    return [c for rs in runs.values()
            for c in faster_half(rs, lambda c: c["wall_s"])]


def mips(cells):
    run = sum(c["run_s"] for c in cells)
    return sum(c["insts"] for c in cells) / run / 1e6 if run else 0.0


def end_to_end(plain, peak_rss_mb):
    """End-to-end metrics of the untraced passes. Each pass is
    {"wall_s", "cpu_s", "cells": [{"key", "wall_s", "setup_s", "run_s",
    "insts"}]}. Cell figures use each cell's faster half of runs, pass
    figures the faster half of passes; setup_s is the median over every
    pass."""
    fast = faster_half(plain, lambda p: p["wall_s"])
    cells = kept_cells(plain)
    cell_ms = [1e3 * c["wall_s"] for c in cells]
    p = tail_percentile(len(cell_ms))
    m = {
        "sim_mips": mips(cells),
        "wall_s": median([q["wall_s"] for q in fast]),
        "cpu_s": median([q["cpu_s"] for q in fast]),
        "setup_s": median([sum(c["setup_s"] for c in q["cells"]
                               if not c.get("failed")) for q in plain]),
        "cell_p50_ms": nearest_rank(cell_ms, 50),
        "cell_tail_ms": nearest_rank(cell_ms, p),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {"passes": len(plain), "cell_samples": len(cell_ms),
            "tail_percentile": p}
    return m, info


def core_timing(plain, traced):
    """Host time per committed instruction and per simulated cycle
    (untraced passes; suite cells carry no cycle count, so theirs comes
    from the traced passes' profiles), plus the VPIR_PROFILE=1 stage
    split (traced passes). The stage figures include the profiler's own
    cost, so the shares are the comparable part."""
    cells = kept_cells(plain)
    run = sum(c["run_s"] for c in cells)
    tcells = [c for p in traced for c in p["cells"] if not c.get("failed")]
    if "cycles" in cells[0]:
        cycles = sum(c["cycles"] for c in cells)
    else:
        per_pass = sum(c["prof"]["cycles_run"] +
                       c["prof"]["idle_skipped_cycles"] for c in tcells)
        cycles = per_pass / len(traced) * len(cells) / len(
            plain[0]["cells"])
    m = {"core.ns_per_inst": 1e9 * run / sum(c["insts"] for c in cells),
         "core.ns_per_cycle": 1e9 * run / cycles}
    tinsts = sum(c["insts"] for c in tcells) or 1
    ns = {s: sum(c["prof"].get(s + "_ns", 0) for c in tcells)
          for s in STAGES}
    total = sum(ns.values()) or 1
    for s in STAGES:
        m["core.%s_ns" % s] = ns[s] / tinsts
        m["core.%s_share" % s] = ns[s] / total
    return m


def trace_overhead(plain, traced):
    """Untraced against traced simulation speed of the same work."""
    untraced, traced_mips = mips(kept_cells(plain)), mips(
        kept_cells(traced))
    return {"trace.sim_mips_untraced": untraced,
            "trace.sim_mips_traced": traced_mips,
            "trace.overhead_frac": untraced / traced_mips - 1}


def sweep_counts(plain, jobs):
    keys = [c.get("sim", c["key"]) for c in plain[0]["cells"]]
    return {
        "sim.program_builds": median([p["program_builds"] for p in plain]),
        "sim.snapshot_builds": median([p["snapshot_builds"] for p in plain]),
        "sweep.cells_simulated": len(keys),
        "sweep.dup_frac": 1 - len(set(keys)) / len(keys),
        "sweep.busy_frac": median(
            [sum(c["wall_s"] for c in p["cells"]) / (p["wall_s"] * jobs)
             for p in plain]),
    }


def run_inprocess(workload, args, deadline):
    """table1 / stall / limit: vpirbench does the work."""
    cfg = WORKLOADS[workload]
    cmd = [VPIRBENCH, workload, "--seed", str(args.seed), "--passes",
           str(num_passes(workload, args)), "--insts", str(cfg["insts"])]
    spans = None
    if args.trace:
        spans = os.path.join(OUT, "spans-%s-%d.json" % (workload, args.seed))
        cmd += ["--trace", spans]
    with open(os.path.join(REFERENCE, workload + ".json")) as f:
        ref = json.load(f)
    if ref["insts"] != cfg["insts"]:
        die("reference/%s.json is for %d instructions per cell, not %d"
            % (workload, ref["insts"], cfg["insts"]))
    d = run_json(cmd, deadline, "raw-%s-%d-%d.json"
                 % (workload, args.seed, args.trace))
    attempted, failed = check_cells(d["passes"], ref)

    plain = [p for p in d["passes"] if not p["traced"]]
    e2e, info = end_to_end(plain, d["peak_rss_mb"])
    if not args.trace:
        return attempted, failed, e2e, info

    traced = [p for p in d["passes"] if p["traced"]]
    layer = dict(d["model"])
    layer.update(d["layers"])
    # The core-side timings come from this workload's own cells where
    # it runs any, else from vpirbench's Table 1 probe.
    if workload == "limit":
        layer.update(core_timing([d["probe"][0]], [d["probe"][1]]))
    else:
        layer.update(core_timing(plain, traced))
    # For limit the traced passes carry spans only, no profiler.
    layer.update(trace_overhead(plain, traced))
    layer.update(sweep_counts(plain, 1))
    info.update(spans=d["spans"], spans_file=spans)
    return attempted, failed, layer, info


def run_suite(args, deadline):
    """suite: the harness binaries, one process at a time."""
    cfg = WORKLOADS["suite"]
    cmd = [sys.executable, os.path.join(HERE, "suite.py"),
           "--bin", BENCH_DIR, "--out", os.path.join(OUT, "suite"),
           "--seed", str(args.seed), "--passes",
           str(num_passes("suite", args)), "--insts", str(cfg["insts"]),
           "--jobs", str(jobs()), "--trace", str(args.trace)]
    d = run_json(cmd, deadline, "raw-suite-%d-%d.json"
                 % (args.seed, args.trace))
    want = {}
    for h in HARNESSES:
        with open(os.path.join(REFERENCE, "suite", h + ".txt"), "rb") as f:
            want[h] = hashlib.sha256(f.read()).hexdigest()
    attempted = failed = 0
    for p in d["passes"]:
        for h in p["harnesses"]:
            attempted += 1
            same = h["stdout_sha256"] == want[h["name"]]
            if h["rc"] != 0 or not same:
                failed += 1
                print("perfbench: %s: exit %d, stdout %s (see %s)"
                      % (h["name"], h["rc"],
                         "matches" if same else "differs from the reference",
                         h["stdout"]), file=sys.stderr)

    # One pass record per suite pass, its cells being every sweep cell
    # of every harness; "sim" names the simulation, which several
    # harnesses may repeat.
    for p in d["passes"]:
        p["cells"] = []
        for h in p["harnesses"]:
            for c in h["cells"]:
                sim = "%s/%s" % (c["workload"], c["params_hash"])
                p["cells"].append(dict(c, sim=sim,
                                       key="%s/%s" % (h["name"], sim)))
        p["program_builds"] = sum(h["program_builds"] for h in p["harnesses"])
        p["snapshot_builds"] = sum(h["snapshot_builds"]
                                   for h in p["harnesses"])
    plain = [p for p in d["passes"] if not p["traced"]]
    e2e, info = end_to_end(plain, d["peak_rss_mb"])
    info["jobs"] = d["jobs"]
    if not args.trace:
        return attempted, failed, e2e, info

    spans = os.path.join(OUT, "spans-layers-%d.json" % args.seed)
    lay = run_json([VPIRBENCH, "layers", "--seed", str(args.seed), "--trace",
                    spans], deadline, "raw-layers-%d.json" % args.seed)
    layer = dict(lay["model"])
    layer.update(lay["layers"])
    traced = [p for p in d["passes"] if p["traced"]]
    layer.update(core_timing(plain, traced))
    layer.update(trace_overhead(plain, traced))
    tcells = [c for p in traced for c in p["cells"]]
    layer["core.idle_skip_frac"] = sum(
        c["prof"]["idle_skipped_cycles"] for c in tcells) / sum(
        c["prof"]["cycles_run"] + c["prof"]["idle_skipped_cycles"]
        for c in tcells)
    layer.update(sweep_counts(plain, d["jobs"]))
    info.update(spans=lay["spans"] + len(traced) * len(HARNESSES),
                spans_file=spans)
    return attempted, failed, layer, info


def num_passes(workload, args):
    n = max(3, round(args.seconds / WORKLOADS[workload]["pass_s"]))
    if args.trace:
        # Untraced and traced passes alternate; keep the run near
        # --seconds of measurement.
        n = max(2, math.ceil(n / 2))
    return n


# -------------------------------------------------------------- reference

def make_reference():
    build()
    deadline = time.monotonic() + 3600
    os.makedirs(os.path.join(REFERENCE, "suite"), exist_ok=True)
    for w in ["table1", "stall", "limit"]:
        d = run_json([VPIRBENCH, w, "--seed", "0", "--passes", "1", "--insts",
                      str(WORKLOADS[w]["insts"])], deadline,
                     "reference-%s.json" % w)
        cells = d["passes"][0]["cells"]
        if any(c["failed"] for c in cells):
            die("a %s cell failed; no reference written" % w)
        ref = {"insts": WORKLOADS[w]["insts"],
               "digests": {c["key"]: c["digest"]
                           for c in sorted(cells, key=lambda c: c["key"])}}
        with open(os.path.join(REFERENCE, w + ".json"), "w") as f:
            json.dump(ref, f, indent=1, sort_keys=True)
            f.write("\n")
    outs = {}
    for j in sorted({1, jobs()}):
        out = os.path.join(OUT, "reference-jobs%d" % j)
        d = run_json([sys.executable, os.path.join(HERE, "suite.py"),
                      "--bin", BENCH_DIR, "--out", out, "--seed", "0",
                      "--passes", "1", "--insts",
                      str(WORKLOADS["suite"]["insts"]), "--jobs", str(j),
                      "--trace", "0"], deadline,
                     "reference-suite-jobs%d.json" % j)
        for h in d["passes"][0]["harnesses"]:
            if h["rc"] != 0:
                die("%s failed; no reference written" % h["name"])
            with open(h["stdout"], "rb") as f:
                outs.setdefault(h["name"], set()).add(f.read())
    for h, texts in outs.items():
        if len(texts) != 1:
            die("%s stdout differs between job counts" % h)
        with open(os.path.join(REFERENCE, "suite", h + ".txt"), "wb") as f:
            f.write(texts.pop())
    print("perfbench: reference written to " + REFERENCE)


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    if args.make_reference:
        make_reference()
        return
    if not args.workload:
        ap.error("--workload is required")

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    if args.workload == "suite":
        attempted, failed, metrics, info = run_suite(args, deadline)
    else:
        attempted, failed, metrics, info = run_inprocess(
            args.workload, args, deadline)

    print("perfbench: workload %s, seed %d, %s" % (
        args.workload, args.seed,
        ", ".join("%s=%s" % kv for kv in sorted(info.items()))))
    declared = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(declared) - set(metrics))
    if missing:
        die("no value for " + ", ".join(missing))
    out = {}
    for name, (unit, _) in declared.items():
        print("  %-26s %14.6g %s" % (name, metrics[name], unit))
        out[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
