#!/bin/sh
# Run every experiment harness in sequence. A failing harness (a sweep
# cell that panicked — the harnesses exit non-zero when any cell fails
# — or a harness that crashed) does not abort the remaining benches:
# every harness runs, the failures are summarised at the end, and the
# script exits 1 if there were any. Usage:
#
#   tools/run_all_benches.sh [build-dir]
#
# The usual knobs apply (VPIR_JOBS, VPIR_BENCH_INSTS, VPIR_BENCH_SCALE,
# VPIR_RESULT_CACHE, VPIR_TIMING_JSON, VPIR_CHECK, VPIR_FAULT_*). Each
# harness writes its own bench_timing.<harness>.json unless
# VPIR_TIMING_JSON overrides the path.
#
# SIGINT/SIGTERM stop gracefully: the harness in flight flushes its
# completed cells to the result cache (if configured) and exits
# 128+sig, the script reports which harnesses completed, and a rerun
# with the same VPIR_RESULT_CACHE resumes from the missing cells.
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

# The trap only records the signal; the shell runs it after the
# harness in flight has finished its own graceful shutdown.
INTERRUPTED=0
trap 'INTERRUPTED=1' INT TERM

FAILED=""
COMPLETED=""
for b in $BENCHES; do
    [ "$INTERRUPTED" = 1 ] && break
    echo "==== $b ===="
    if "$BUILD/bench/$b"; then
        COMPLETED="$COMPLETED $b"
    else
        rc=$?
        if [ "$rc" -eq 130 ] || [ "$rc" -eq 143 ]; then
            # Graceful SIGINT/SIGTERM stop, not a bench failure. Any
            # other signal (a crash, 139 = SIGSEGV) is a failure.
            INTERRUPTED=1
            break
        fi
        echo "run_all_benches: $b exited with status $rc" >&2
        FAILED="$FAILED $b"
    fi
done

if [ "$INTERRUPTED" = 1 ]; then
    echo "run_all_benches: interrupted" >&2
    echo "run_all_benches: completed harnesses:${COMPLETED:- (none)}" >&2
    [ -n "$FAILED" ] &&
        echo "run_all_benches: FAILED harnesses:$FAILED" >&2
    echo "run_all_benches: rerun with the same VPIR_RESULT_CACHE to" \
         "resume the remaining cells" >&2
    exit 130
fi

if [ -n "$FAILED" ]; then
    echo "run_all_benches: FAILED harnesses:$FAILED" >&2
    exit 1
fi
echo "run_all_benches: all harnesses completed"
