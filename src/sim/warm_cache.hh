/**
 * @file
 * Warm-start cache: assembled programs and post-warmup emulator
 * snapshots shared across sweep cells.
 *
 * A parameter sweep runs hundreds of cells, but only a handful of
 * distinct (workload, scale) programs and (workload, scale, warmup)
 * functional states exist among them. Before this cache every cell
 * re-assembled its workload and re-executed the warmup from scratch;
 * now the first cell needing a key builds it once and every later
 * cell clones it — the program by shared_ptr, the emulator state by a
 * copy-on-write page-table copy (see emu/state.hh).
 *
 * Thread safety: keyed std::call_once slots, so concurrent sweep
 * workers asking for the same key block on one build instead of
 * racing duplicates. A build that panics (SimError under
 * PanicThrowScope) leaves the slot unbuilt; the next caller retries
 * and observes the same error.
 *
 * Every sweep cell and runWorkload() go through the cache. The cold
 * path — Simulator(params, Program), whose Core builds a private
 * snapshot no other core shares — stays as the reference the tests
 * hold the cached machines to, bit for bit.
 */

#ifndef VPIR_SIM_WARM_CACHE_HH
#define VPIR_SIM_WARM_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "emu/executor.hh"
#include "workload/workload.hh"

namespace vpir
{

/** Process-wide cache of assembled workloads and warm snapshots. */
class WarmStartCache
{
  public:
    /** Lifetime build/hit counters (monotone; clear() resets). */
    struct Counters
    {
        uint64_t programBuilds = 0;
        uint64_t programHits = 0;
        uint64_t snapshotBuilds = 0;
        uint64_t snapshotHits = 0;
    };

    static WarmStartCache &global();

    /** The assembled workload for (name, scale), built at most
     *  once. */
    std::shared_ptr<const Workload> workload(const std::string &name,
                                             const WorkloadScale &scale);

    /**
     * The post-warmup snapshot for (name, scale, warmupInsts), built
     * at most once via makeWarmSnapshot() on the cached workload's
     * program (building that first if needed).
     */
    std::shared_ptr<const EmuSnapshot>
    snapshot(const std::string &name, const WorkloadScale &scale,
             uint64_t warmupInsts);

    Counters counters() const;

    /** Drop every entry and zero the counters (test hook). */
    void clear();

  private:
    template <typename T>
    struct Slot
    {
        std::once_flag once;
        std::shared_ptr<const T> value;
    };

    template <typename T>
    std::shared_ptr<Slot<T>> slotFor(std::map<std::string,
                                              std::shared_ptr<Slot<T>>> &m,
                                     const std::string &key);

    mutable std::mutex mu;
    std::map<std::string, std::shared_ptr<Slot<Workload>>> programs;
    std::map<std::string, std::shared_ptr<Slot<EmuSnapshot>>> snapshots;
    Counters ctr;
};

} // namespace vpir

#endif // VPIR_SIM_WARM_CACHE_HH
