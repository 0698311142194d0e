#include "mem/cache.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

namespace
{

/** Lines in a cache of @p p's geometry. */
uint32_t
lineCount(const CacheParams &p)
{
    VPIR_ASSERT(isPowerOf2(p.lineBytes), "line size not a power of two");
    return p.sizeBytes / p.lineBytes;
}

} // anonymous namespace

Cache::Cache(const CacheParams &p)
    : params(p), lines(lineCount(p), p.ways), lineBits(floorLog2(p.lineBytes))
{
}

bool
Cache::probe(Addr addr) const
{
    return lines.find(setIndex(addr), holding(tagOf(addr))) != nullptr;
}

unsigned
Cache::access(Addr addr)
{
    ++nAccesses;
    uint32_t set = setIndex(addr);
    uint32_t tag = tagOf(addr);
    unsigned lat = params.hitLatency;
    Line *l = lines.find(set, holding(tag));
    if (!l) {
        ++nMisses;
        lat += params.missLatency;
        l = &lines.victim(set);
        l->valid = true;
        l->tag = tag;
    }
    lines.touch(*l);
    return lat;
}

} // namespace vpir
