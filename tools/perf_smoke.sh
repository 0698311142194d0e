#!/bin/sh
# Performance smoke test (opt-in: ctest -C bench, test "perf_smoke").
#
# Three checks:
#
#  1. Warm-start win: BM_CellSetup with VPIR_WARM_CACHE=1 must be
#     measurably cheaper than with the cache off — the cached cell
#     skips assembly and replaces the functional warmup with a COW
#     clone, so anything short of a large win means the warm path
#     regressed.
#
#  2. Simulator throughput: simMIPS of BM_PipelineSimulation/0 must
#     not regress by more than 20% against a recorded baseline. The
#     baseline file is recorded on first run (and after deleting it),
#     so the check is always relative to the same host.
#
#  3. Profiler plumbing: one uncached VPIR_PROFILE=1 fig3 sweep must
#     land the per-stage profiler counters in its bench_timing JSON.
#     (The idle skipper's effectiveness is pinned deterministically by
#     the tier-1 test SchedEquivalence.IdleHeavyRegime, not by a
#     timing ratio.)
#
# Usage: perf_smoke.sh <build-dir> [baseline-file]
set -u

BUILD_DIR=${1:?usage: perf_smoke.sh <build-dir> [baseline-file]}
BASELINE=${2:-$BUILD_DIR/perf_smoke_baseline.txt}
BENCH=$BUILD_DIR/bench/bench_micro

if [ ! -x "$BENCH" ]; then
    echo "perf_smoke: $BENCH not found or not executable" >&2
    exit 1
fi

# google-benchmark console output: "BM_Name  123 ns  124 ns  5000 ..."
# Field 2 is cpu-independent real time; field 3 its unit.
bench_time_ns() {
    # $1: benchmark filter regex, $2: VPIR_WARM_CACHE value
    VPIR_WARM_CACHE=$2 "$BENCH" \
        --benchmark_filter="$1" --benchmark_min_time=0.2 2>/dev/null |
        awk '$1 ~ /^BM_/ {
            t = $2; u = $3
            if (u == "us") t *= 1000
            else if (u == "ms") t *= 1000000
            else if (u == "s") t *= 1000000000
            print t; exit
        }'
}

fail=0

# ---- 1. warm vs cold cell setup ------------------------------------
cold_ns=$(bench_time_ns '^BM_CellSetup$' 0)
warm_ns=$(bench_time_ns '^BM_CellSetup$' 1)
if [ -z "$cold_ns" ] || [ -z "$warm_ns" ]; then
    echo "perf_smoke: could not parse BM_CellSetup times" >&2
    exit 1
fi
echo "perf_smoke: cell setup cold ${cold_ns}ns, warm ${warm_ns}ns"
# Require warm < 70% of cold. The warm path removes assembly and the
# functional warmup but keeps the (fixed) core-construction cost, so
# the observed ratio is well under 0.7 and shrinks further as warmup
# grows; 0.7 only trips when the warm path has stopped working.
if ! awk -v w="$warm_ns" -v c="$cold_ns" 'BEGIN{exit !(w < 0.7 * c)}'; then
    echo "perf_smoke: FAIL: warm-start setup (${warm_ns}ns) is not" \
         "measurably cheaper than cold (${cold_ns}ns)" >&2
    fail=1
fi

# ---- 2. simulator throughput vs recorded baseline ------------------
mips=$(VPIR_WARM_CACHE=1 "$BENCH" \
    --benchmark_filter='^BM_PipelineSimulation/0$' \
    --benchmark_min_time=0.5 2>/dev/null |
    awk '$1 ~ /^BM_/ { if (match($0, /simMIPS=[0-9.]+[kM]?/)) {
        v = substr($0, RSTART + 8, RLENGTH - 8)
        mult = 1
        if (v ~ /k$/) { mult = 1000; sub(/k$/, "", v) }
        else if (v ~ /M$/) { mult = 1000000; sub(/M$/, "", v) }
        print v * mult; exit
    } }')
if [ -z "$mips" ]; then
    echo "perf_smoke: could not parse simMIPS" >&2
    exit 1
fi
if [ ! -f "$BASELINE" ]; then
    echo "$mips" > "$BASELINE"
    echo "perf_smoke: recorded simMIPS baseline $mips -> $BASELINE"
else
    base=$(cat "$BASELINE")
    echo "perf_smoke: simMIPS $mips (baseline $base)"
    if ! awk -v m="$mips" -v b="$base" 'BEGIN{exit !(m >= 0.8 * b)}'; then
        echo "perf_smoke: FAIL: simMIPS $mips regressed >20% below" \
             "baseline $base (delete $BASELINE to re-record)" >&2
        fail=1
    fi
fi

# ---- 3. profiler counters in the timing JSON ------------------------
FIG3=$BUILD_DIR/bench/bench_fig3
if [ ! -x "$FIG3" ]; then
    echo "perf_smoke: $FIG3 not found or not executable" >&2
    exit 1
fi

# VPIR_RESULT_CACHE is cleared so every cell actually simulates.
PROFILE_JSON=$BUILD_DIR/bench_timing.perf_smoke_profile.json
env -u VPIR_RESULT_CACHE VPIR_BENCH_INSTS=100000 VPIR_JOBS=1 \
    VPIR_PROFILE=1 VPIR_TIMING_JSON="$PROFILE_JSON" "$FIG3" \
    >/dev/null 2>&1
for key in issue_ns idle_skipped_cycles cycles_run; do
    if ! grep -q "\"$key\":" "$PROFILE_JSON"; then
        echo "perf_smoke: FAIL: profiler counter '$key' missing from" \
             "bench_timing JSON" >&2
        fail=1
    fi
done

exit $fail
