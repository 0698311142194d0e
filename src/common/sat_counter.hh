/**
 * @file
 * Saturating counters, the workhorse of confidence estimation and
 * two-bit branch direction prediction.
 *
 * A table stores its counters as bare counts (a byte per gshare
 * counter, a 16-bit confidence per VPT entry) and keeps the maximum
 * once for the whole table; these helpers are the one saturating step
 * both apply.
 */

#ifndef VPIR_COMMON_SAT_COUNTER_HH
#define VPIR_COMMON_SAT_COUNTER_HH

#include "common/logging.hh"

namespace vpir
{

/** Maximum of a @p bits wide counter; panics unless @p bits is
 *  1..15. */
inline unsigned
satMax(unsigned bits)
{
    VPIR_ASSERT(bits >= 1 && bits <= 15, "bad counter width");
    return (1u << bits) - 1;
}

/** Increment @p count, saturating at @p max. */
template <typename Count>
void
satIncrement(Count &count, unsigned max)
{
    if (count < max)
        ++count;
}

/** Decrement @p count, saturating at zero. */
template <typename Count>
void
satDecrement(Count &count)
{
    if (count > 0)
        --count;
}

/** True when @p count is in the upper half of [0, @p max] (taken, for
 *  a two-bit direction counter). */
inline bool
satUpperHalf(unsigned count, unsigned max)
{
    return count > max / 2;
}

} // namespace vpir

#endif // VPIR_COMMON_SAT_COUNTER_HH
