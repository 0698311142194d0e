/**
 * @file
 * SlotSet ring-order iteration: the core walks its scheduling sets
 * from the ROB head, so every member must come out exactly once,
 * ascending from the start slot and then wrapping, for any start and
 * for capacities that fill one word, several, or end mid-word.
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

} // anonymous namespace
