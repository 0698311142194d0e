/**
 * @file
 * Shared plumbing for the experiment harnesses: run a workload under
 * a configuration (memoized through the parallel sweep engine so one
 * bench can derive several columns from one run), and common
 * formatting helpers.
 *
 * Environment knobs:
 *   VPIR_BENCH_INSTS    committed-instruction budget per run
 *                       (default 400000)
 *   VPIR_BENCH_SCALE    workload scale factor (default 1.0)
 *   VPIR_JOBS           threads per sweep batch (default hardware
 *                       concurrency; 1 = inline)
 *   VPIR_RESULT_CACHE   on-disk result cache directory (off if unset)
 *   VPIR_TIMING_JSON    timing report path (default
 *                       bench_timing.<harness>.json, so a full bench
 *                       run keeps every harness's records)
 *   VPIR_CHECK          =1: lockstep-verify every retired instruction
 *   VPIR_WATCHDOG_CYCLES commit-progress watchdog limit
 *   VPIR_FAULT_*        deterministic fault injection (see configs.hh)
 *
 * A cell that panics is reported and the harness exits 1 once every
 * other cell has finished; VPIR_WATCHDOG_CYCLES bounds a hung cell.
 */

#ifndef VPIR_BENCH_BENCH_UTIL_HH
#define VPIR_BENCH_BENCH_UTIL_HH

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "redundancy/redundancy.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "sweep/sweep.hh"

namespace vpir
{
namespace bench
{

/**
 * Memoized (benchmark, configuration) -> stats runner, backed by the
 * process-wide SweepEngine. Results are keyed by a hash of the full
 * CoreParams — not the display label — so two configs that share a
 * label can never alias each other's cached stats, and identical
 * configs under different labels are simulated once.
 *
 * Harnesses call prefetch() for every cell up front, then run() in
 * table order: the first run() runs every queued cell as one batch
 * across VPIR_JOBS threads, later ones read finished results, and
 * tables print byte-identical output for any job count. Calling run()
 * without prefetch() still works — that cell just runs alone.
 */
class Runner
{
  public:
    Runner() : limit(benchInstLimit()), scale(benchScale()) {}

    ~Runner()
    {
        auto &eng = sweep::SweepEngine::global();
        if (eng.cellsComputed() + eng.cellsFromDiskCache() == 0)
            return;
        eng.printSummary(stderr);
        // Default to a per-harness path: 16 harnesses writing one
        // shared bench_timing.json would each clobber the last one's
        // records. An explicit VPIR_TIMING_JSON is honored as-is.
        const char *path = std::getenv("VPIR_TIMING_JSON");
        std::string def = std::string("bench_timing.") +
                          program_invocation_short_name + ".json";
        eng.writeTimingJson(path && *path ? path : def);
    }

    /** Schedule a cell without waiting for its result. */
    void
    prefetch(const std::string &workload, const std::string &label,
             const CoreParams &params)
    {
        sweep::SweepEngine::global().prefetch(cell(workload, label, params));
    }

    const CoreStats &
    run(const std::string &workload, const std::string &label,
        const CoreParams &params)
    {
        return sweep::SweepEngine::global().get(cell(workload, label, params));
    }

    uint64_t instLimit() const { return limit; }

  private:
    sweep::SweepCell
    cell(const std::string &workload, const std::string &label,
         const CoreParams &params) const
    {
        CoreParams p = withLimits(params, limit);
        applyHardeningEnv(p);
        return sweep::SweepCell{workload, label, p, scale};
    }

    uint64_t limit;
    WorkloadScale scale;
};

/**
 * Process exit status for a bench main(): 1 when any sweep cell
 * failed (the failure details were printed by the Runner destructor's
 * summary), 0 otherwise. Harnesses end with `return exitStatus();` so
 * CI sees per-cell failures instead of a clean-looking table of zeros.
 */
inline int
exitStatus()
{
    return sweep::SweepEngine::global().failures().empty() ? 0 : 1;
}

/**
 * Run the redundancy limit study (fig 8-10) over every workload on
 * VPIR_JOBS threads. Results come back in workloadNames() order, so
 * table output is independent of the job count; an aggregate timing
 * line goes to stderr.
 */
inline std::vector<RedundancyStats>
analyzeAllWorkloads()
{
    const auto &names = workloadNames();
    WorkloadScale scale = benchScale();
    uint64_t limit = benchInstLimit();
    std::vector<RedundancyStats> out(names.size());
    auto t0 = std::chrono::steady_clock::now();
    sweep::parallelFor(names.size(), [&](size_t i) {
        Workload w = makeWorkload(names[i], scale);
        RedundancyParams params;
        params.maxInsts = limit;
        out[i] = analyzeRedundancy(w.program, params);
    });
    double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    uint64_t insts = 0;
    for (const RedundancyStats &st : out)
        insts += st.totalDynamic;
    std::fprintf(stderr,
                 "[sweep] %zu analysis cells, jobs=%u: wall %.2f s, "
                 "%.1f M insts, %.1f MIPS\n",
                 names.size(), sweep::defaultJobs(), wall,
                 static_cast<double>(insts) / 1e6,
                 wall > 0.0 ? static_cast<double>(insts) / wall / 1e6 : 0.0);
    return out;
}

/** Conditional-branch direction prediction rate (%). */
inline double
brPredRate(const CoreStats &st)
{
    return st.condBranches
               ? 100.0 * (1.0 - static_cast<double>(st.condMispredicted) /
                                    static_cast<double>(st.condBranches))
               : 0.0;
}

/** Return target prediction rate (%). */
inline double
retPredRate(const CoreStats &st)
{
    return st.returns
               ? 100.0 * (1.0 - static_cast<double>(st.returnMispredicted) /
                                    static_cast<double>(st.returns))
               : 0.0;
}

/** Speedup of @p s over @p base (IPC ratio). */
inline double
speedup(const CoreStats &s, const CoreStats &base)
{
    return base.ipc() > 0.0 ? s.ipc() / base.ipc() : 0.0;
}

/** Mean branch resolution latency in cycles. */
inline double
branchResLat(const CoreStats &st)
{
    return st.branchResCount
               ? static_cast<double>(st.branchResLatSum) /
                     static_cast<double>(st.branchResCount)
               : 0.0;
}

/** Resource contention ratio (denied / requested). */
inline double
contention(const CoreStats &st)
{
    return st.resourceRequests
               ? static_cast<double>(st.resourceDenied) /
                     static_cast<double>(st.resourceRequests)
               : 0.0;
}

/** Print the standard bench banner. */
inline void
banner(const char *experiment, const char *what)
{
    std::printf("================================================="
                "=====================\n");
    std::printf("%s — %s\n", experiment, what);
    std::printf("(paper: Sodani & Sohi, \"Understanding the "
                "Differences Between Value\n Prediction and "
                "Instruction Reuse\", MICRO-31, 1998)\n");
    std::printf("================================================="
                "=====================\n");
}

} // namespace bench
} // namespace vpir

#endif // VPIR_BENCH_BENCH_UTIL_HH
