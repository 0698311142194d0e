#include "sim/warm_cache.hh"

#include <cstdio>
#include <cstring>

namespace vpir
{

namespace
{

/** Stable cache key; the scale factor is keyed by its exact bit
 *  pattern so 0.1 and 0.1000…1 never alias. */
std::string
scaleKey(const std::string &name, const WorkloadScale &scale)
{
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(scale.factor),
                  "scale factor must be a 64-bit float");
    std::memcpy(&bits, &scale.factor, sizeof(bits));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "@%016llx",
                  static_cast<unsigned long long>(bits));
    return name + buf;
}

} // namespace

WarmStartCache &
WarmStartCache::global()
{
    static WarmStartCache cache;
    return cache;
}

template <typename T>
std::shared_ptr<WarmStartCache::Slot<T>>
WarmStartCache::slotFor(
    std::map<std::string, std::shared_ptr<Slot<T>>> &m,
    const std::string &key)
{
    std::lock_guard<std::mutex> lk(mu);
    auto &slot = m[key];
    if (!slot)
        slot = std::make_shared<Slot<T>>();
    return slot;
}

std::shared_ptr<const Workload>
WarmStartCache::workload(const std::string &name,
                         const WorkloadScale &scale)
{
    auto slot = slotFor(programs, scaleKey(name, scale));
    // Build outside the map lock: assembly can take a while and other
    // keys must not serialize behind it. A panic (SimError) escapes
    // with the once_flag unset, so a later caller re-attempts and hits
    // the same failure.
    bool did_build = false;
    std::call_once(slot->once, [&] {
        slot->value =
            std::make_shared<const Workload>(makeWorkload(name, scale));
        did_build = true;
    });
    {
        std::lock_guard<std::mutex> lk(mu);
        if (did_build)
            ++ctr.programBuilds;
        else
            ++ctr.programHits;
    }
    return slot->value;
}

std::shared_ptr<const EmuSnapshot>
WarmStartCache::snapshot(const std::string &name,
                         const WorkloadScale &scale, uint64_t warmupInsts)
{
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "#%llu",
                  static_cast<unsigned long long>(warmupInsts));
    auto slot = slotFor(snapshots, scaleKey(name, scale) + suffix);
    bool did_build = false;
    std::call_once(slot->once, [&] {
        std::shared_ptr<const Workload> w = workload(name, scale);
        slot->value = std::make_shared<EmuSnapshot>(
            makeWarmSnapshot(w->program, warmupInsts));
        did_build = true;
    });
    {
        std::lock_guard<std::mutex> lk(mu);
        if (did_build)
            ++ctr.snapshotBuilds;
        else
            ++ctr.snapshotHits;
    }
    return slot->value;
}

WarmStartCache::Counters
WarmStartCache::counters() const
{
    std::lock_guard<std::mutex> lk(mu);
    return ctr;
}

void
WarmStartCache::clear()
{
    std::lock_guard<std::mutex> lk(mu);
    programs.clear();
    snapshots.clear();
    ctr = Counters{};
}

} // namespace vpir
