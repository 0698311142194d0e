/**
 * @file
 * Functional unit pool with Table 1 latencies: units are busy for
 * their issue latency (non-pipelined units like dividers block for
 * nearly their whole operation latency).
 */

#ifndef VPIR_CORE_FU_POOL_HH
#define VPIR_CORE_FU_POOL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/decode.hh"

namespace vpir
{

/** All functional units of the machine. */
class FuPool
{
  public:
    FuPool()
    {
        for (unsigned t = 0; t < static_cast<unsigned>(FuType::NUM_TYPES);
             ++t) {
            busyUntil[t].assign(fuPoolSize(static_cast<FuType>(t)), 0);
        }
    }

    /**
     * Occupy a unit from @p now for @p issue_lat cycles.
     * @return false, occupying nothing, when no unit is free.
     */
    bool
    acquire(FuType t, uint64_t now, unsigned issue_lat)
    {
        if (t == FuType::None)
            return true;
        for (uint64_t &b : busyUntil[static_cast<unsigned>(t)]) {
            if (b <= now) {
                b = now + issue_lat;
                return true;
            }
        }
        return false;
    }

  private:
    std::array<std::vector<uint64_t>,
               static_cast<unsigned>(FuType::NUM_TYPES)> busyUntil;
};

} // namespace vpir

#endif // VPIR_CORE_FU_POOL_HH
