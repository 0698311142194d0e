/**
 * @file
 * Set-associative cache timing model.
 *
 * Matches the paper's Table 1 memories: 64KB, 2-way, 32-byte lines,
 * 6-cycle miss latency, for both L1I and L1D (D is dual ported and
 * non-blocking). Only hit/miss timing is modelled — data always comes
 * from the emulator's architectural memory.
 */

#ifndef VPIR_MEM_CACHE_HH
#define VPIR_MEM_CACHE_HH

#include <cstdint>
#include <vector>

#include "isa/instr.hh"

namespace vpir
{

/** Cache geometry and timing parameters. */
struct CacheParams
{
    uint32_t sizeBytes = 64 * 1024;
    unsigned ways = 2;
    uint32_t lineBytes = 32;
    unsigned hitLatency = 1;
    unsigned missLatency = 6;   //!< additional cycles on a miss
};

/** Tag-only set-associative cache with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params = CacheParams());

    /**
     * Access a line; allocates on miss.
     * @return total access latency in cycles.
     */
    unsigned access(Addr addr);

    /** Probe without allocating or touching LRU. */
    bool probe(Addr addr) const;

    /** Invalidate everything (between benchmark runs). */
    void reset();

    uint64_t accesses() const { return nAccesses; }
    uint64_t misses() const { return nMisses; }
    uint32_t lineBytes() const { return params.lineBytes; }

    /** True when two addresses share a cache line. */
    bool
    sameLine(Addr a, Addr b) const
    {
        return (a >> lineBits) == (b >> lineBits);
    }

  private:
    struct Line
    {
        bool valid = false;
        uint32_t tag = 0;
        uint64_t lru = 0; //!< clock at last touch; 0 = never touched
    };

    uint32_t setIndex(Addr addr) const;
    uint32_t tagOf(Addr addr) const;

    CacheParams params;
    uint32_t numSets;
    unsigned lineBits; //!< log2(lineBytes)
    unsigned setBits;  //!< log2(numSets)
    std::vector<Line> lines; //!< [set * ways + way]
    /** One LRU clock for the whole cache: within a set, stamp order
     *  is touch order, and never-touched ways tie at 0. */
    uint64_t clock = 0;
    uint64_t nAccesses = 0;
    uint64_t nMisses = 0;
};

} // namespace vpir

#endif // VPIR_MEM_CACHE_HH
