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
    lineBits = floorLog2(p.lineBytes);
    setBits = floorLog2(numSets);
    lines.assign(static_cast<size_t>(numSets) * p.ways, Line());
}

uint32_t
Cache::setIndex(Addr addr) const
{
    return (addr >> lineBits) & (numSets - 1);
}

uint32_t
Cache::tagOf(Addr addr) const
{
    return (addr >> lineBits) >> setBits;
}

bool
Cache::probe(Addr addr) const
{
    const Line *set = &lines[setIndex(addr) * params.ways];
    uint32_t tag = tagOf(addr);
    for (unsigned w = 0; w < params.ways; ++w) {
        if (set[w].valid && set[w].tag == tag)
            return true;
    }
    return false;
}

unsigned
Cache::access(Addr addr)
{
    ++nAccesses;
    Line *set = &lines[setIndex(addr) * params.ways];
    uint32_t tag = tagOf(addr);

    for (unsigned w = 0; w < params.ways; ++w) {
        if (set[w].valid && set[w].tag == tag) {
            set[w].lru = ++clock;
            return params.hitLatency;
        }
    }

    ++nMisses;
    // LRU victim, lowest way on ties.
    Line *victim = &set[0];
    for (unsigned w = 1; w < params.ways; ++w) {
        if (set[w].lru < victim->lru)
            victim = &set[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = ++clock;
    return params.hitLatency + params.missLatency;
}

void
Cache::reset()
{
    for (Line &l : lines)
        l.valid = false;
    nAccesses = 0;
    nMisses = 0;
}

} // namespace vpir
