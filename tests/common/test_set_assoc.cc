/**
 * @file
 * SetAssoc unit tests: the one LRU victim rule against a per-way
 * stamp reference model, tie-breaking toward the lowest way, flat
 * indexing and find order, and the geometry assertions.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/set_assoc.hh"

using namespace vpir;

namespace
{

/** A line number stored as line + 1: a fresh entry is all-zero
 *  bytes, as zero-page storage requires, and reads as line -1. */
class LineNo
{
  public:
    LineNo &
    operator=(int64_t line)
    {
        plus1 = line + 1;
        return *this;
    }
    operator int64_t() const { return plus1 - 1; }

  private:
    int64_t plus1 = 0;
};

struct Line
{
    bool valid = false;
    LineNo line;
};

/** Property: one 8-way set keeps exactly the lines a per-way stamp
 *  LRU reference keeps (untouched ways tie at stamp 0 and the lowest
 *  one is the victim), and fills the same way on every miss. */
TEST(SetAssoc, EightWayMatchesLruReferenceModel)
{
    SetAssoc<Line> t(8, 8);
    struct Way
    {
        uint64_t stamp = 0;
        int64_t line = -1;
    };
    std::vector<Way> ref(8);
    uint64_t clock = 0;
    uint64_t s = 99;
    for (int i = 0; i < 2000; ++i) {
        s = s * 6364136223846793005ull + 1;
        int64_t line = static_cast<int64_t>(s >> 60); // 16 lines
        unsigned w = 0;
        while (w < 8 && ref[w].line != line)
            ++w;
        bool hit = w < 8;
        if (!hit) {
            w = 0;
            for (unsigned k = 1; k < 8; ++k) {
                if (ref[k].stamp < ref[w].stamp)
                    w = k;
            }
            ref[w].line = line;
        }
        ref[w].stamp = ++clock;

        Line *l = t.find(0, [line](const Line &x) {
            return x.valid && x.line == line;
        });
        ASSERT_EQ(l != nullptr, hit) << "access " << i;
        if (!l) {
            l = &t.victim(0);
            l->valid = true;
            l->line = line;
        }
        t.touch(*l);
        ASSERT_EQ(t.indexOf(*l), w) << "access " << i;
        for (unsigned k = 0; k < 8; ++k)
            ASSERT_EQ(t.way(0, k).line, ref[k].line)
                << "access " << i << " way " << k;
    }
}

TEST(SetAssoc, VictimIsLeastRecentlyTouchedLowestOnTies)
{
    SetAssoc<Line> t(16, 4);
    EXPECT_EQ(t.sets(), 4u);
    EXPECT_EQ(t.setBits(), 2u);
    // Never touched: every way ties at 0, the lowest goes first.
    EXPECT_EQ(t.indexOf(t.victim(2)), t.index(2, 0));
    t.touch(t.way(2, 0));
    EXPECT_EQ(t.indexOf(t.victim(2)), t.index(2, 1));
    t.touch(t.way(2, 2));
    EXPECT_EQ(t.indexOf(t.victim(2)), t.index(2, 1));
    t.touch(t.way(2, 1));
    t.touch(t.way(2, 3));
    EXPECT_EQ(t.indexOf(t.victim(2)), t.index(2, 0));
    t.touch(t.way(2, 0));
    EXPECT_EQ(t.indexOf(t.victim(2)), t.index(2, 2));
    // Touches in one set leave another's order alone.
    EXPECT_EQ(t.indexOf(t.victim(1)), t.index(1, 0));
}

TEST(SetAssoc, FlatIndexAndFindOrder)
{
    SetAssoc<Line> t(16, 4);
    EXPECT_EQ(t.size(), 16u);
    EXPECT_EQ(t.index(3, 1), 13u);
    EXPECT_EQ(&t[13], &t.way(3, 1));
    t.way(3, 1).line = 7;
    t.way(3, 3).line = 7;
    const SetAssoc<Line> &ct = t;
    const Line *l =
        ct.find(3, [](const Line &x) { return x.line == 7; });
    ASSERT_NE(l, nullptr);
    EXPECT_EQ(t.indexOf(*l), 13u); // the first match in way order
    EXPECT_EQ(t.find(2, [](const Line &x) { return x.line == 7; }),
              nullptr);
}

TEST(SetAssoc, NonPowerOfTwoSetsOrZeroWaysPanic)
{
    PanicThrowScope scope;
    EXPECT_THROW(SetAssoc<Line>(12, 4), SimError); // 3 sets
    EXPECT_THROW(SetAssoc<Line>(16, 0), SimError);
    EXPECT_THROW(SetAssoc<Line>(18, 4), SimError); // ways don't divide
    EXPECT_NO_THROW(SetAssoc<Line>(12, 3));        // 4 sets of 3
}

} // anonymous namespace
