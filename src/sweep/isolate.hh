/**
 * @file
 * Crash-contained execution of one sweep cell.
 *
 * PanicThrowScope contains *panics*, but a hard crash — segfault,
 * sanitizer abort, OOM kill, or a cell that never terminates — still
 * takes the whole harness (and every in-flight cell) with it. The
 * isolated mode (VPIR_ISOLATE=1) runs each cell in a forked child:
 *
 *  - the child simulates the cell and returns its whole CellOutcome
 *    over a pipe in the bounds-checked binary ckpt_io encoding
 *    (encodeOutcome()), so results are bit-identical to the
 *    in-process mode and a payload truncated by a dying child is
 *    rejected, never half-read;
 *  - an optional address-space rlimit (VPIR_CELL_RLIMIT_MB) turns a
 *    leaking or pathological cell into a contained allocation
 *    failure;
 *  - a wall-clock deadline (VPIR_CELL_TIMEOUT_MS) is enforced by the
 *    parent with SIGKILL;
 *  - any abnormal child exit (signal, exit code, captured stderr
 *    tail) is reported as a structured failure instead of killing
 *    the sweep;
 *  - the child blocks SIGINT/SIGTERM, so a terminal ^C lets an
 *    in-flight cell finish and hand back its result; the parent
 *    engine coordinates the graceful stop (sweep.hh).
 *
 * In the default in-process mode the same deadline is enforced
 * cooperatively: computeCellOnce() arms a CellDeadlineScope that the
 * core's cycle loop polls (see common/deadline.hh).
 *
 * VPIR_TEST_CRASH_CELL=<label> is a test/CI hook: a cell whose label
 * matches raises SIGSEGV in the worker, standing in for a real
 * simulator crash so containment can be proven end to end.
 */

#ifndef VPIR_SWEEP_ISOLATE_HH
#define VPIR_SWEEP_ISOLATE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "core/core_stats.hh"
#include "core/sched_profile.hh"

namespace vpir
{

struct Workload;
struct EmuSnapshot;

namespace sweep
{

struct SweepCell;

/** Cell execution knobs, captured from the environment once per
 *  engine (so tests can vary them between engines). */
struct IsolationConfig
{
    bool enabled = false;    //!< VPIR_ISOLATE=1: fork per cell
    uint64_t timeoutMs = 0;  //!< VPIR_CELL_TIMEOUT_MS (0 = none)
    uint64_t rlimitMb = 0;   //!< VPIR_CELL_RLIMIT_MB (0 = none)
};

/** Read VPIR_ISOLATE / VPIR_CELL_TIMEOUT_MS / VPIR_CELL_RLIMIT_MB. */
IsolationConfig isolationFromEnv();

/** Outcome of one cell execution, either mode. */
struct CellOutcome
{
    bool failed = false;
    bool timedOut = false;      //!< deadline overrun
    CoreStats stats;            //!< zeroed when failed
    std::string workloadInput;  //!< Workload::input (for vpirsim)
    std::string error;          //!< failure message, context included

    // Phase breakdown (bench_timing provenance).
    double setupSeconds = 0.0;  //!< workload + core construction
    double runSeconds = 0.0;    //!< timed simulation proper
    bool asmBuilt = false;      //!< this run assembled the program
    bool warmBuilt = false;     //!< this run executed the warmup

    /** Per-stage cycle profile (core/sched_profile.hh). Host-dependent,
     *  so it rides next to the phase timings rather than inside the
     *  deterministic stats block. */
    SchedProfile profile;
};

/**
 * Run the cell on the calling thread under a PanicThrowScope, cell
 * context frames, and (when @p timeout_ms > 0) a cooperative
 * deadline. Never throws; panics and fatals become a failed outcome.
 *
 * @param prebuilt_w, prebuilt_snap
 *     Pre-resolved warm-start handles for this cell's (workload,
 *     scale, warmup) key. Passed by the isolated mode, where the
 *     parent populates the WarmStartCache *before* forking (a child
 *     must never touch the cache's locks — see sim/warm_cache.hh).
 *     When null, the cell resolves them itself: from the cache when
 *     VPIR_WARM_CACHE is on, by assembling and warming privately
 *     otherwise.
 */
CellOutcome
computeCellOnce(const SweepCell &cell, uint64_t timeout_ms,
                std::shared_ptr<const Workload> prebuilt_w = nullptr,
                std::shared_ptr<const EmuSnapshot> prebuilt_snap = nullptr);

/**
 * Run the cell in a forked child per @p cfg. The child's stderr is
 * captured: forwarded to the parent's stderr on success, appended
 * (tail) to the error on failure. Falls back to computeCellOnce()
 * with a warning if fork/pipe fails.
 */
CellOutcome
runCellIsolated(const SweepCell &cell, const IsolationConfig &cfg,
                std::shared_ptr<const Workload> prebuilt_w = nullptr,
                std::shared_ptr<const EmuSnapshot> prebuilt_snap = nullptr);

/** Fork wire protocol: the child's outcome as ckpt_io binary, every
 *  CoreStats field through forEachStatField(), doubles bit-exact. */
std::string encodeOutcome(const CellOutcome &out);

/** Decode an encodeOutcome() payload. Accepted only when every field
 *  reads in bounds and nothing trails it, so any strict prefix (a
 *  child killed mid-write) is rejected; @p out is untouched then. */
bool decodeOutcome(const std::string &data, CellOutcome &out);

/** "SIGSEGV"-style name for common signals, "signal N" otherwise. */
std::string signalName(int sig);

} // namespace sweep
} // namespace vpir

#endif // VPIR_SWEEP_ISOLATE_HH
