#!/bin/sh
# Run every experiment harness in sequence. A failing harness (a sweep
# cell that panicked — the harnesses exit non-zero when any cell fails
# — or a harness that crashed or was killed by a signal) does not
# abort the remaining benches: every harness runs, the failures are
# summarised at the end, and the script exits 1 if there were any.
# Usage:
#
#   tools/run_all_benches.sh [build-dir]
#
# The usual knobs apply (VPIR_JOBS, VPIR_BENCH_INSTS, VPIR_BENCH_SCALE,
# VPIR_RESULT_CACHE, VPIR_TIMING_JSON, VPIR_CHECK, VPIR_FAULT_*). Each
# harness writes its own bench_timing.<harness>.json unless
# VPIR_TIMING_JSON overrides the path.
#
# ^C stops the run at once, like a crash or a kill. With
# VPIR_RESULT_CACHE set, every cell that had finished is already in the
# cache, so a rerun with the same cache simulates only the rest.
# A SIGINT or SIGTERM sent to the script's pid alone (a job runner
# stopping it) ends the harness in flight too: each harness runs as a
# waited-for background child, and the trap below kills it with TERM,
# waits for it, and then ends the script by the caught signal. The
# child gets TERM, not INT, because a non-interactive sh starts
# background children with SIGINT ignored.
# Wired into ctest as the opt-in "bench" configuration: ctest -C bench.
set -u

BUILD=build
for arg; do
    case "$arg" in
        --help|-h)
            echo "usage: $0 [build-dir]" >&2
            exit 2 ;;
        *) BUILD=$arg ;;
    esac
done

if [ ! -d "$BUILD/bench" ]; then
    echo "run_all_benches: no bench binaries under '$BUILD'" >&2
    echo "usage: $0 [build-dir]" >&2
    exit 2
fi

BENCHES="bench_table1 bench_table2 bench_table3 bench_table4
         bench_table5 bench_table6 bench_fig3 bench_fig4 bench_fig5
         bench_fig6 bench_fig7 bench_fig8 bench_fig9 bench_fig10
         bench_ablation bench_hybrid"

CHILD=
stop() {
    if [ -n "$CHILD" ]; then
        kill -s TERM "$CHILD" 2>/dev/null
        wait "$CHILD"
    fi
    trap - "$1"
    kill -s "$1" $$
}
trap 'stop INT' INT
trap 'stop TERM' TERM

FAILED=""
for b in $BENCHES; do
    echo "==== $b ===="
    "$BUILD/bench/$b" &
    CHILD=$!
    wait "$CHILD"
    rc=$?
    CHILD=
    if [ "$rc" -ne 0 ]; then
        echo "run_all_benches: $b exited with status $rc" >&2
        FAILED="$FAILED $b"
    fi
done

if [ -n "$FAILED" ]; then
    echo "run_all_benches: FAILED harnesses:$FAILED" >&2
    exit 1
fi
echo "run_all_benches: all harnesses completed"
