/**
 * @file
 * Timing wheel for completion events.
 *
 * The core used to find finishing instructions by scanning the whole
 * ROB every cycle for completeAt <= now. The wheel indexes events by
 * their due cycle instead, in a power-of-two bucket array indexed by
 * (at & (span - 1)). The owner sizes the span from its machine so
 * that every event is due fewer than span cycles after the cycle that
 * schedules it (schedule() asserts it). A bucket therefore only ever
 * holds events due on one cycle: popDue() takes the current cycle's
 * bucket whole, and nextEventAt() gives the idle-cycle skipper the
 * first non-empty bucket at or after now as an exact bound.
 *
 * Events are fire-and-forget: a squash does not remove events, the
 * consumer validates each popped event against live ROB state (slot
 * + sequence number) and discards stale ones.
 */

#ifndef VPIR_COMMON_EVENT_WHEEL_HH
#define VPIR_COMMON_EVENT_WHEEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

/** One scheduled completion: ROB slot plus the sequence number that
 *  occupied it at schedule time (staleness check on pop). */
struct WheelEvent
{
    uint64_t at = 0;
    uint64_t seq = 0;
    int slot = -1;
};

class EventWheel
{
  public:
    /** A wheel of @p span buckets, a power of two: every event must
     *  be due fewer than @p span cycles after it is scheduled. */
    explicit EventWheel(uint64_t span) : buckets(span)
    {
        VPIR_ASSERT(isPowerOf2(span), "wheel span not a power of two");
    }

    uint64_t span() const { return buckets.size(); }
    size_t size() const { return n; }
    bool empty() const { return n == 0; }

    /** Schedule @p ev; @p now is the current cycle. A due cycle in
     *  the past or a span or more ahead is a caller bug. */
    void
    schedule(const WheelEvent &ev, uint64_t now)
    {
        VPIR_ASSERT(ev.at >= now, "scheduling an event in the past");
        VPIR_ASSERT(ev.at - now < span(),
                    "event delay beyond the wheel's span");
        buckets[bucket(ev.at)].push_back(ev);
        ++n;
    }

    /** Hand every event due at @p now over to @p out, replacing its
     *  contents, and remove it from the wheel. The bucket is handed
     *  over by swap, not copied event by event: @p out takes the
     *  bucket's storage and the bucket keeps @p out's, emptied.
     *  Caller sorts/validates as needed. */
    void
    popDue(uint64_t now, std::vector<WheelEvent> &out)
    {
        std::vector<WheelEvent> &b = buckets[bucket(now)];
        out.clear();
        out.swap(b);
        for (const WheelEvent &ev : out)
            VPIR_ASSERT(ev.at == now, "wheel event popped off its cycle");
        n -= out.size();
    }

    /** Due cycle of the earliest pending event, or UINT64_MAX when
     *  empty. @p now must be at or before every pending event. Only
     *  called on idle cycles, so the bounded bucket scan is off the
     *  hot path. */
    uint64_t
    nextEventAt(uint64_t now) const
    {
        if (n == 0)
            return UINT64_MAX;
        for (uint64_t at = now;; ++at) {
            const std::vector<WheelEvent> &b = buckets[bucket(at)];
            if (!b.empty()) {
                VPIR_ASSERT(b.front().at == at,
                            "stale event left in wheel");
                return at;
            }
        }
    }

  private:
    size_t
    bucket(uint64_t at) const
    {
        return static_cast<size_t>(at & (buckets.size() - 1));
    }

    std::vector<std::vector<WheelEvent>> buckets;
    size_t n = 0;
};

} // namespace vpir

#endif // VPIR_COMMON_EVENT_WHEEL_HH
