/**
 * @file
 * EventWheel unit tests: popping at the exact due cycle, bucket
 * wraparound (successive laps sharing a bucket), the longest delay
 * the span allows, nextEventAt bounds across the wrap, and the
 * assertions on a past due cycle, a delay beyond the span, a
 * non-power-of-two span and an event left behind its cycle.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/event_wheel.hh"
#include "common/logging.hh"

using namespace vpir;

namespace
{

constexpr uint64_t SPAN = 64;

WheelEvent
ev(uint64_t at, int slot = 0)
{
    WheelEvent e;
    e.at = at;
    e.slot = slot;
    return e;
}

std::vector<WheelEvent>
popAll(EventWheel &w, uint64_t now)
{
    std::vector<WheelEvent> out;
    w.popDue(now, out);
    return out;
}

TEST(EventWheel, PopsExactlyAtDueCycle)
{
    EventWheel w(SPAN);
    w.schedule(ev(5, 1), 0);
    w.schedule(ev(7, 2), 0);
    EXPECT_EQ(w.size(), 2u);

    EXPECT_TRUE(popAll(w, 4).empty());
    std::vector<WheelEvent> due = popAll(w, 5);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].slot, 1);
    EXPECT_EQ(w.size(), 1u);

    EXPECT_TRUE(popAll(w, 6).empty());
    due = popAll(w, 7);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].slot, 2);
    EXPECT_TRUE(w.empty());
}

TEST(EventWheel, TwoLapsShareABucketWithoutCrosstalk)
{
    // at and at + SPAN map to the same bucket. The second lap can
    // only be scheduled once the first has popped (its delay must
    // stay under the span); it must then wait out a whole revolution
    // in that bucket and pop on its own cycle.
    EventWheel w(SPAN);
    w.schedule(ev(9, 1), 0);
    std::vector<WheelEvent> due = popAll(w, 9);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].slot, 1);

    w.schedule(ev(9 + SPAN, 2), 10); // delay SPAN - 1: bucket of 9
    for (uint64_t now = 10; now < 9 + SPAN; ++now)
        EXPECT_TRUE(popAll(w, now).empty()) << now;
    due = popAll(w, 9 + SPAN);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].slot, 2);
    EXPECT_TRUE(w.empty());
}

TEST(EventWheel, LongestDelayPopsOnTime)
{
    // Events SPAN - 1 cycles ahead, scheduled from every cycle of two
    // revolutions, land one bucket behind the current one; each must
    // pop exactly once, on its cycle.
    EventWheel w(SPAN);
    std::vector<uint64_t> seen;
    for (uint64_t now = 0; now < 3 * SPAN; ++now) {
        for (const WheelEvent &e : popAll(w, now)) {
            EXPECT_EQ(e.at, now);
            seen.push_back(e.at);
        }
        if (now < 2 * SPAN)
            w.schedule(ev(now + SPAN - 1), now);
    }
    ASSERT_EQ(seen.size(), 2 * SPAN);
    for (uint64_t i = 0; i < seen.size(); ++i)
        EXPECT_EQ(seen[i], i + SPAN - 1);
    EXPECT_TRUE(w.empty());
}

TEST(EventWheel, NextEventAtFindsEarliestAcrossNearAndFar)
{
    // Near: a few cycles ahead. Far: the span's last cycle, whose
    // bucket sits behind the current one, so the scan wraps.
    EventWheel w(SPAN);
    EXPECT_EQ(w.nextEventAt(0), UINT64_MAX);

    w.schedule(ev(100 + SPAN - 1, 1), 100); // far
    EXPECT_EQ(w.nextEventAt(100), 100 + SPAN - 1);

    w.schedule(ev(140, 2), 100); // near, beats the far event
    EXPECT_EQ(w.nextEventAt(100), 140u);
    EXPECT_EQ(w.nextEventAt(140), 140u); // due right now

    (void)popAll(w, 140);
    EXPECT_EQ(w.nextEventAt(141), 100 + SPAN - 1);
}

TEST(EventWheel, SchedulingInThePastPanics)
{
    EventWheel w(SPAN);
    PanicThrowScope scope;
    EXPECT_THROW(w.schedule(ev(5), 6), SimError);
}

TEST(EventWheel, DelayBeyondTheSpanPanics)
{
    // The owner sizes the span so that no event is ever a full
    // revolution ahead: such an event would share a bucket with one
    // due a lap earlier.
    EventWheel w(SPAN);
    PanicThrowScope scope;
    EXPECT_THROW(w.schedule(ev(10 + SPAN), 10), SimError);
    EXPECT_TRUE(w.empty());
    w.schedule(ev(10 + SPAN - 1), 10);
    EXPECT_EQ(w.size(), 1u);
    EXPECT_THROW(EventWheel(48), SimError);
}

TEST(EventWheel, EventLeftBehindItsCyclePanics)
{
    // A consumer that jumps past a due event finds it a lap later in
    // the bucket it pops: caught, not delivered late.
    EventWheel w(SPAN);
    w.schedule(ev(5), 0);
    PanicThrowScope scope;
    EXPECT_THROW(w.nextEventAt(6), SimError);
    std::vector<WheelEvent> out;
    EXPECT_THROW(w.popDue(5 + SPAN, out), SimError);
}

} // anonymous namespace
