/**
 * @file
 * Top-level simulation facade: build a workload, run it on a
 * configured core, collect stats. This is the primary public entry
 * point for examples and benches.
 */

#ifndef VPIR_SIM_SIMULATOR_HH
#define VPIR_SIM_SIMULATOR_HH

#include <memory>
#include <string>

#include "core/core.hh"
#include "sim/configs.hh"
#include "workload/workload.hh"

namespace vpir
{

/** Owns (or shares) a program and owns a core; runs to completion. */
class Simulator
{
  public:
    /** Take sole ownership of an already-assembled program. */
    Simulator(const CoreParams &params, Program program);

    /**
     * Share a cached workload (and optionally a post-warmup snapshot
     * for params.warmupInsts) with other simulators — see
     * sim/warm_cache.hh. The snapshot skips the functional warmup via
     * a copy-on-write clone; without one the core builds its own, and
     * results are bit-identical either way.
     */
    Simulator(const CoreParams &params,
              std::shared_ptr<const Workload> workload,
              std::shared_ptr<const EmuSnapshot> warm = nullptr);

    /** Run until halt or configured limits. */
    const CoreStats &run();

    const CoreStats &stats() const { return core_->stats(); }
    Core &core() { return *core_; }

  private:
    std::shared_ptr<const Workload> wl;
    std::unique_ptr<Core> core_;
};

/** One-shot helper: build the named workload and simulate it. */
CoreStats runWorkload(const std::string &name, const CoreParams &params,
                      const WorkloadScale &scale = WorkloadScale());

/**
 * Default per-benchmark run length used by the bench harnesses; keeps
 * a full table sweep to a few minutes (see DESIGN.md §2 on scaling).
 * Override with the VPIR_BENCH_INSTS environment variable.
 */
uint64_t benchInstLimit();

/** Workload scale used by benches (VPIR_BENCH_SCALE, default 1.0). */
WorkloadScale benchScale();

} // namespace vpir

#endif // VPIR_SIM_SIMULATOR_HH
