/**
 * @file
 * LRU replacement state for small set-associative structures (caches,
 * VPT, reuse buffer). Tracks recency with per-way timestamps, which is
 * exact LRU and cheap at the associativities used here (2- and 4-way).
 */

#ifndef VPIR_COMMON_LRU_HH
#define VPIR_COMMON_LRU_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace vpir
{

/** LRU recency tracker for one set of @p ways ways. */
class LruSet
{
  public:
    explicit LruSet(unsigned ways = 4) : stamps(ways, 0), tick(0) {}

    /** Mark a way most-recently-used. */
    void
    touch(unsigned way)
    {
        VPIR_ASSERT(way < stamps.size(), "way out of range");
        stamps[way] = ++tick;
    }

    /** Way holding the least-recently-used entry. */
    unsigned
    victim() const
    {
        unsigned v = 0;
        for (unsigned w = 1; w < stamps.size(); ++w) {
            if (stamps[w] < stamps[v])
                v = w;
        }
        return v;
    }

    unsigned ways() const { return static_cast<unsigned>(stamps.size()); }

  private:
    std::vector<uint64_t> stamps;
    uint64_t tick;
};

} // namespace vpir

#endif // VPIR_COMMON_LRU_HH
