/**
 * @file
 * SlotSet ring-order iteration: the core walks its scheduling sets
 * from the ROB head, so every member must come out exactly once,
 * ascending from the start slot and then wrapping, for any start and
 * for capacities that fill one word, several, or end mid-word. The
 * walk reads membership live: changes ahead of it show, changes
 * behind it do not.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/slot_set.hh"

using namespace vpir;

namespace
{

std::vector<int>
ringOrder(const SlotSet &s, size_t start, size_t stop_after = SIZE_MAX)
{
    std::vector<int> out;
    s.forEachFrom(start, [&](int slot) {
        out.push_back(slot);
        return out.size() < stop_after;
    });
    return out;
}

TEST(SlotSet, RingOrderFromEveryStart)
{
    for (size_t cap : {size_t{32}, size_t{100}, size_t{256}}) {
        SlotSet s(cap);
        std::vector<int> members;
        for (int m : {0, 5, 31, 63, 64, 70, 99, 200, 255})
            if (static_cast<size_t>(m) < cap)
                members.push_back(m);
        for (int m : members)
            s.insert(m);
        for (size_t start = 0; start <= cap; ++start) {
            std::vector<int> want;
            for (int m : members)
                if (static_cast<size_t>(m) >= start)
                    want.push_back(m);
            for (int m : members)
                if (static_cast<size_t>(m) < start)
                    want.push_back(m);
            EXPECT_EQ(ringOrder(s, start), want)
                << "capacity " << cap << ", start " << start;
        }
        EXPECT_EQ(ringOrder(s, 1, 2),
                  (std::vector<int>{members[1], members[2]}));
        s.clear();
        EXPECT_TRUE(ringOrder(s, 3).empty());
    }
}

/** Property: during a walk, a member inserted ahead of the cursor
 *  (in ring order) is visited; one inserted behind it, or erased
 *  ahead of it, is not. Starts and slots cover the same word, the
 *  next word and the wrap back into the start word. */
TEST(SlotSet, LiveWalkSeesChangesAheadOfTheCursor)
{
    const size_t cap = 200;
    for (size_t start : {size_t{0}, size_t{10}, size_t{70}, size_t{199}}) {
        // Ring position of a slot: its distance from start.
        auto pos = [&](int slot) {
            return (static_cast<size_t>(slot) + cap - start) % cap;
        };
        for (int cursor : {3, 64, 130}) {
            for (int other : {0, 9, 11, 63, 65, 128, 150, 199}) {
                if (other == cursor)
                    continue;
                const bool ahead = pos(other) > pos(cursor);
                SCOPED_TRACE(::testing::Message()
                             << "start " << start << ", cursor " << cursor
                             << ", other " << other);

                SlotSet s(cap);
                s.insert(cursor);
                bool seen = false;
                s.forEachFrom(start, [&](int slot) {
                    if (slot == cursor)
                        s.insert(other);
                    seen = seen || slot == other;
                    return true;
                });
                EXPECT_EQ(seen, ahead) << "inserted during the walk";

                SlotSet e(cap);
                e.insert(cursor);
                e.insert(other);
                seen = false;
                e.forEachFrom(start, [&](int slot) {
                    if (slot == cursor)
                        e.erase(other);
                    seen = seen || slot == other;
                    return true;
                });
                EXPECT_EQ(seen, !ahead) << "erased during the walk";
            }
        }
    }
}

} // anonymous namespace
