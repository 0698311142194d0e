/**
 * @file
 * Shared plumbing for the experiment harnesses: declare a table's
 * (workload x config) cells once as a Grid, read them back in table
 * order, and common formatting helpers.
 *
 * A harness is a `void runX(Runner &)` in bench/bench_<x>.cc, named
 * once in the table of bench/main.cc. The bench_<x> binary runs that
 * one harness; bench_all runs the whole table in one process on one
 * Runner, so a cell that two harnesses share is simulated once.
 *
 * Each harness is "make grids, then print". Runner::grid() queues every
 * cell of one table on the process-wide SweepEngine and returns its
 * Grid; a harness makes all of its grids before its first Grid::at().
 * That first read runs every queued cell as one batch across
 * VPIR_JOBS threads, later reads find finished results, and tables
 * print byte-identical output for any job count. Adding a column is
 * one Config entry in the list handed to grid().
 *
 * Environment knobs:
 *   VPIR_BENCH_INSTS    committed-instruction budget per run
 *                       (default 400000)
 *   VPIR_BENCH_SCALE    workload scale factor (default 1.0)
 *   VPIR_JOBS           threads per sweep batch (default hardware
 *                       concurrency; 1 = inline)
 *   VPIR_RESULT_CACHE   on-disk result cache directory (off if unset)
 *   VPIR_TIMING_JSON    timing report path (default
 *                       bench_timing.<binary>.json, e.g.
 *                       bench_timing.bench_all.json)
 *   VPIR_CHECK          =1: lockstep-verify every retired instruction
 *   VPIR_WATCHDOG_CYCLES commit-progress watchdog limit
 *   VPIR_FAULT_*        deterministic fault injection (see configs.hh)
 *
 * A cell that panics is reported and the binary exits 1 once every
 * other cell has finished. VPIR_WATCHDOG_CYCLES bounds a cell that
 * stops committing; a core left with nothing to wait for fails at once.
 */

#ifndef VPIR_BENCH_BENCH_UTIL_HH
#define VPIR_BENCH_BENCH_UTIL_HH

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "redundancy/redundancy.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"
#include "stats/table.hh"
#include "sweep/sweep.hh"

namespace vpir
{
namespace bench
{

/** One column of a harness table: its display label and machine. */
struct Config
{
    std::string label;
    CoreParams params;
};

/**
 * The paper's four VP machines for @p scheme at @p lat-cycle
 * verification, in its column order ME-SB, NME-SB, ME-NSB, NME-NSB,
 * labelled prefix + "me-sb" + suffix and so on.
 */
inline std::vector<Config>
vpConfigs(VpScheme scheme, unsigned lat, const std::string &prefix,
          const std::string &suffix = "")
{
    using BR = BranchResolution;
    auto cfg = [&](const char *name, ReexecPolicy re, BR br) {
        return Config{prefix + name + suffix, vpConfig(scheme, re, br, lat)};
    };
    return {cfg("me-sb", ReexecPolicy::Multiple, BR::Speculative),
            cfg("nme-sb", ReexecPolicy::Single, BR::Speculative),
            cfg("me-nsb", ReexecPolicy::Multiple, BR::NonSpeculative),
            cfg("nme-nsb", ReexecPolicy::Single, BR::NonSpeculative)};
}

/**
 * The cells of one table: every (workload, config) pair a
 * Runner::grid() call queued, workload by workload. Results are keyed
 * by a hash of the full CoreParams, not the label, so two configs
 * that share a label never alias, and a cell two grids share is
 * simulated once.
 */
class Grid
{
  public:
    /**
     * Stats of @p workload under the config at index @p column of the
     * list given to Runner::grid(). The first read runs every queued
     * cell as one batch. Panics on a workload or column outside the
     * grid.
     */
    const CoreStats &
    at(const std::string &workload, size_t column) const
    {
        auto it = std::find(workloads.begin(), workloads.end(), workload);
        VPIR_ASSERT(it != workloads.end(),
                    "workload '" + workload + "' is not in the grid");
        VPIR_ASSERT(column < columns,
                    "column " + std::to_string(column) +
                        " is past the grid's " + std::to_string(columns));
        size_t row = static_cast<size_t>(it - workloads.begin());
        return sweep::SweepEngine::global().get(
            cells[row * columns + column]);
    }

  private:
    friend class Runner;

    Grid(std::vector<std::string> workloads, size_t columns,
         std::vector<sweep::SweepCell> cells)
        : workloads(std::move(workloads)), columns(columns),
          cells(std::move(cells))
    {
    }

    std::vector<std::string> workloads;
    size_t columns;
    std::vector<sweep::SweepCell> cells; //!< workload-major
};

/**
 * Builds a harness's grids at the bench run length and scale, and on
 * destruction prints the sweep summary to stderr and writes the
 * timing JSON.
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
        // Default to a per-binary path, so harness binaries run one
        // after another keep each one's records. An explicit
        // VPIR_TIMING_JSON is honored as-is.
        const char *path = std::getenv("VPIR_TIMING_JSON");
        std::string def = std::string("bench_timing.") +
                          program_invocation_short_name + ".json";
        eng.writeTimingJson(path && *path ? path : def);
    }

    /**
     * Queue every (workload, config) cell on the global sweep engine,
     * workload by workload, with the bench run limit and the
     * hardening environment applied; nothing runs until the first
     * Grid::at().
     */
    Grid
    grid(const std::vector<Config> &configs,
         const std::vector<std::string> &workloads = workloadNames())
    {
        std::vector<sweep::SweepCell> cells;
        cells.reserve(workloads.size() * configs.size());
        for (const std::string &w : workloads) {
            for (const Config &c : configs) {
                CoreParams p = withLimits(c.params, limit);
                applyHardeningEnv(p);
                cells.push_back(sweep::SweepCell{w, c.label, p, scale});
                sweep::SweepEngine::global().prefetch(cells.back());
            }
        }
        return Grid(workloads, configs.size(), std::move(cells));
    }

    uint64_t instLimit() const { return limit; }

  private:
    uint64_t limit;
    WorkloadScale scale;
};

/**
 * Run the redundancy limit study (fig 8-10) over every workload on
 * VPIR_JOBS threads, once per process: figures 8, 9 and 10 read the
 * same results. Results come back in workloadNames() order, so table
 * output is independent of the job count; an aggregate timing line
 * goes to stderr.
 */
inline const std::vector<RedundancyStats> &
analyzeAllWorkloads()
{
    static std::vector<RedundancyStats> out;
    if (!out.empty())
        return out;
    const auto &names = workloadNames();
    WorkloadScale scale = benchScale();
    uint64_t limit = benchInstLimit();
    out.resize(names.size());
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
