#include "sim/simulator.hh"

#include "common/env.hh"
#include "sim/warm_cache.hh"

namespace vpir
{

Simulator::Simulator(const CoreParams &params, Program program)
{
    auto w = std::make_shared<Workload>();
    w->program = std::move(program);
    wl = std::move(w);
    core_ = std::make_unique<Core>(params, wl->program);
}

Simulator::Simulator(const CoreParams &params,
                     std::shared_ptr<const Workload> workload,
                     std::shared_ptr<const EmuSnapshot> warm)
    : wl(std::move(workload))
{
    core_ = std::make_unique<Core>(params, wl->program, warm.get());
}

const CoreStats &
Simulator::run()
{
    return core_->run();
}

CoreStats
runWorkload(const std::string &name, const CoreParams &params,
            const WorkloadScale &scale)
{
    WarmStartCache &cache = WarmStartCache::global();
    auto w = cache.workload(name, scale);
    auto snap = cache.snapshot(name, scale, params.warmupInsts);
    Simulator sim(params, std::move(w), std::move(snap));
    return sim.run();
}

uint64_t
benchInstLimit()
{
    // Strict parsing: "10m" or "1e6" must not silently truncate to 10
    // resp. 1 — a misparse here invalidates a whole table run.
    return parseEnvU64("VPIR_BENCH_INSTS", 400000);
}

WorkloadScale
benchScale()
{
    WorkloadScale sc;
    sc.factor = parseEnvF64("VPIR_BENCH_SCALE", sc.factor);
    return sc;
}

} // namespace vpir
