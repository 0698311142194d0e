/**
 * @file
 * SweepEngine: parallel execution of independent (workload, config)
 * simulation cells for full-table experiment runs.
 *
 * Every paper table/figure is a sweep of independent simulations;
 * each Simulator owns its core and workload with no shared mutable
 * state, so cells are embarrassingly parallel. The engine provides:
 *
 *  - batch execution: queued cells run as parallelFor() batches on
 *    VPIR_JOBS threads (default hardware_concurrency; 1 = inline on
 *    the calling thread), the same loop the limit study and the fuzz
 *    campaign use;
 *  - a memoized result cache keyed by a stable hash of the *full*
 *    CoreParams plus workload and scale — two configs sharing a
 *    display label can never alias (the bench_util.hh stale-cache
 *    fix);
 *  - deterministic results independent of completion order: callers
 *    read results back by key in their own (program) order, so table
 *    output is byte-identical for any job count;
 *  - an optional on-disk JSON result cache (VPIR_RESULT_CACHE=<dir>)
 *    keyed by the same hash, so re-running a bench after an unrelated
 *    edit skips recomputation — and, because completed cells are
 *    persisted as they finish, a crashed or interrupted sweep resumes
 *    from exactly the missing cells on rerun;
 *  - one account of the run: per-cell and aggregate wall-time /
 *    simulated-MIPS records and each simulated cell's stage profile,
 *    totalled once for the stderr summary and the machine-readable
 *    bench_timing JSON;
 *  - one execution path: every cell runs in process on a batch
 *    thread, drawing its program and post-warmup state from the
 *    process-wide WarmStartCache. A panic inside a cell (checker,
 *    watchdog, audit, assertion) becomes a structured CellFailure and
 *    the other cells complete; a hard crash ends the process, and
 *    the finished cells are already in the disk cache;
 *  - checked cells (checkRetire or auditInvariants) always simulate:
 *    they write the disk cache but never read it, so a checked rerun
 *    checks every cell;
 *  - no signal handler; the disk cache is the one resume path: a
 *    crash, a kill and ^C all end the process at once, and a rerun
 *    recomputes exactly the cells that never finished.
 */

#ifndef VPIR_SWEEP_SWEEP_HH
#define VPIR_SWEEP_SWEEP_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/core_stats.hh"
#include "core/params.hh"
#include "core/sched_profile.hh"
#include "workload/workload.hh"

namespace vpir
{
namespace sweep
{

/** VPIR_JOBS, or hardware_concurrency when unset/invalid. */
unsigned defaultJobs();

/** VPIR_RESULT_CACHE directory ("" = disk cache disabled). */
std::string defaultCacheDir();

/**
 * Stable FNV-1a hash over every CoreParams field (machine geometry,
 * caches, predictor, technique knobs, run limits), in the order
 * forEachParamField() visits them. Stable across processes — safe as
 * an on-disk cache key.
 */
uint64_t hashParams(const CoreParams &p);

/** One schedulable simulation: workload x configuration. */
struct SweepCell
{
    std::string workload;
    std::string label;   //!< display-only; not part of the cache key
    CoreParams params;
    WorkloadScale scale;
};

/** Full cache key: workload + params-hash + scale. */
uint64_t cellHash(const SweepCell &cell);

/** A cell whose simulation failed; see failures(). */
struct CellFailure
{
    std::string workload;
    std::string label;
    uint64_t paramsHash = 0;
    std::string error; //!< full panic/fatal message, context included
};

/** Timing/observability record for one executed cell. */
struct CellTiming
{
    std::string workload;
    std::string label;
    uint64_t paramsHash = 0;
    double wallSeconds = 0.0;
    uint64_t committedInsts = 0;
    bool fromDiskCache = false;

    // Phase breakdown (zero for disk-cache hits): where the wall time
    // went. The first cell per (workload, scale, warmup) key also
    // pays for the program and warm-snapshot builds, which
    // WarmStartCache counts.
    double setupSeconds = 0.0; //!< workload + core construction
    double runSeconds = 0.0;   //!< timed simulation proper

    /** Per-stage cycle profile (zeroed for disk-cache hits). Emitted
     *  into the timing JSON for every simulated cell. */
    SchedProfile profile;

    double
    mips() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(committedInsts) / wallSeconds /
                         1e6
                   : 0.0;
    }
};

/**
 * The sweep engine. An engine is driven from one thread and owns no
 * thread between calls: prefetch() only queues a cell, and drain(),
 * or get() on a cell with no result yet, runs every queued cell as
 * one parallelFor() batch whose threads are joined before that call
 * returns. It holds no lock or condition variable.
 */
class SweepEngine
{
  public:
    /**
     * @param jobs threads per batch; 0 = defaultJobs(); 1 = inline
     *             (no thread started).
     * @param cache_dir on-disk cache directory; "" disables. Defaults
     *             to VPIR_RESULT_CACHE.
     */
    explicit SweepEngine(unsigned jobs = 0,
                         const std::string &cache_dir = defaultCacheDir());

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /** Queue a cell (no-op if an identical cell is already known);
     *  nothing runs until the next drain() or get(). */
    void prefetch(const SweepCell &cell);

    /** Run every queued cell; returns when each has a result. */
    void drain();

    /**
     * Memoized result lookup. A cell with no result yet is queued if
     * needed and run in a batch with every other queued cell. The
     * returned reference stays valid for the engine's lifetime.
     */
    const CoreStats &get(const SweepCell &cell);

    /** Timing records in cell submission order (failed cells are
     *  excluded; see failures()). */
    std::vector<CellTiming> timings() const;

    /**
     * Cells whose simulation failed (in submission order). A failing
     * cell runs once — a panic replays identically, so a retry would
     * only fail again — and is recorded here with its error message;
     * the rest of the sweep completes normally and get() returns
     * zeroed stats for the failed cell. Harnesses must report these
     * and exit non-zero.
     */
    std::vector<CellFailure> failures() const;

    size_t cellsComputed() const;
    size_t cellsFromDiskCache() const;

    /**
     * Write the timing records plus aggregate wall-time and
     * simulated-MIPS as machine-readable JSON. @return success.
     */
    bool writeTimingJson(const std::string &path) const;

    /** Print a one-paragraph aggregate summary, and every failed
     *  cell's error, to @p out (stderr by convention, keeping bench
     *  stdout byte-identical per job count). */
    void printSummary(std::FILE *out) const;

    /** Process-wide engine used by the bench Runner and vpirsim. */
    static SweepEngine &global();

  private:
    struct Record
    {
        SweepCell cell;
        uint64_t key = 0;
        CoreStats stats;
        /** Workload, label and params hash are set when the cell is
         *  queued, the rest when it runs. */
        CellTiming timing;
        bool failed = false; //!< simulation failed
        std::string error;   //!< failure message, context included
    };

    /** Aggregates over the cells that ran and did not fail. */
    struct Totals
    {
        size_t cells = 0;
        size_t diskHits = 0;
        double cpu = 0.0; //!< summed per-cell wall time
        double setup = 0.0;
        double run = 0.0;
        uint64_t insts = 0;
        uint64_t execInsts = 0; //!< of the cells simulated, not loaded
        /** Simulated MIPS over the executed cells only: a disk-cache
         *  hit adds instructions but almost no wall time. Negative
         *  when no cell executed, as there is no speed to report. */
        double mips = -1.0;
    };
    /** The totals printSummary() and writeTimingJson() report. */
    Totals totals() const;

    /** Run every record not yet run, each through runRecord(), as one
     *  parallelFor() batch. */
    void runQueued();
    void runRecord(Record &rec); //!< compute (or disk-load) one cell
    /** Simulate the cell on this thread, filling @p rec; a panic
     *  becomes a failed record. */
    void simulate(Record &rec);
    /** Index of @p cell's record, appending a new one if needed. */
    size_t findOrCreate(const SweepCell &cell);
    /** The records that have run, in submission order. */
    std::span<const std::unique_ptr<Record>> ran() const
    {
        return {records.data(), nextToRun};
    }
    bool tryLoadFromDisk(Record &rec);
    void saveToDisk(const Record &rec);
    std::string diskPath(const Record &rec) const;

    unsigned numJobs;
    std::string cacheDir;

    /** Every cell in submission order; records[0, nextToRun) have
     *  run, the rest are queued. */
    std::vector<std::unique_ptr<Record>> records;
    std::unordered_map<uint64_t, size_t> byKey; //!< cell key -> record
    size_t nextToRun = 0;
    /** Wall-clock seconds spent running batches in drain()/get(). */
    double drainSeconds = 0.0;
};

/**
 * Deterministic parallel-for over [0, n): body(i) runs once per index
 * on up to @p jobs threads (0 = defaultJobs()) started for this call
 * and joined before it returns; one job, or n <= 1, runs inline on
 * the calling thread. Indices are handed out in increasing order, and
 * callers observe results via their own output slots indexed by i, so
 * ordering is caller-controlled. The first exception a body throws is
 * rethrown on the calling thread after every thread has finished.
 * Runs SweepEngine batches, the limit study (fig8-10) and the fuzz
 * campaign.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &body,
                 unsigned jobs = 0);

} // namespace sweep
} // namespace vpir

#endif // VPIR_SWEEP_SWEEP_HH
