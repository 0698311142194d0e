#include "mem/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

Cache::Cache(const CacheParams &p) : params(p)
{
    VPIR_ASSERT(isPowerOf2(p.lineBytes), "line size not a power of two");
    VPIR_ASSERT(p.ways >= 1, "need at least one way");
    numSets = p.sizeBytes / (p.lineBytes * p.ways);
    VPIR_ASSERT(isPowerOf2(numSets), "set count not a power of two");
    lines.assign(numSets, std::vector<Line>(p.ways));
    lru.assign(numSets, LruSet(p.ways));
}

uint32_t
Cache::setIndex(Addr addr) const
{
    return (addr / params.lineBytes) & (numSets - 1);
}

uint32_t
Cache::tagOf(Addr addr) const
{
    return (addr / params.lineBytes) / numSets;
}

bool
Cache::probe(Addr addr) const
{
    const auto &set = lines[setIndex(addr)];
    uint32_t tag = tagOf(addr);
    for (const Line &l : set) {
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

unsigned
Cache::access(Addr addr)
{
    ++nAccesses;
    uint32_t si = setIndex(addr);
    uint32_t tag = tagOf(addr);
    auto &set = lines[si];

    for (unsigned w = 0; w < set.size(); ++w) {
        if (set[w].valid && set[w].tag == tag) {
            lru[si].touch(w);
            return params.hitLatency;
        }
    }

    ++nMisses;
    unsigned victim = lru[si].victim();
    set[victim].valid = true;
    set[victim].tag = tag;
    lru[si].touch(victim);
    return params.hitLatency + params.missLatency;
}

void
Cache::reset()
{
    for (auto &set : lines) {
        for (Line &l : set)
            l.valid = false;
    }
    nAccesses = 0;
    nMisses = 0;
}

} // namespace vpir
