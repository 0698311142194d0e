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

#include "common/set_assoc.hh"
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

    uint64_t accesses() const { return nAccesses; }
    uint64_t misses() const { return nMisses; }
    uint32_t lineBytes() const { return params.lineBytes; }

    /** True when two addresses share a cache line. */
    bool
    sameLine(Addr a, Addr b) const
    {
        return (a >> lineBits) == (b >> lineBits);
    }

    /** The line storage (test hook: residency checks). */
    const auto &storage() const { return lines; }

  private:
    struct Line
    {
        bool valid = false;
        uint32_t tag = 0;
    };

    uint32_t
    setIndex(Addr addr) const
    {
        return (addr >> lineBits) & (lines.sets() - 1);
    }
    uint32_t
    tagOf(Addr addr) const
    {
        return (addr >> lineBits) >> lines.setBits();
    }
    /** Match for SetAssoc::find: the valid line tagged @p tag. */
    static auto
    holding(uint32_t tag)
    {
        return [tag](const Line &l) { return l.valid && l.tag == tag; };
    }

    CacheParams params;
    SetAssoc<Line> lines;
    unsigned lineBits; //!< log2(lineBytes)
    uint64_t nAccesses = 0;
    uint64_t nMisses = 0;
};

} // namespace vpir

#endif // VPIR_MEM_CACHE_HH
