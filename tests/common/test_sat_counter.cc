/** @file Unit tests for the saturating counter helpers. */

#include <gtest/gtest.h>

#include <cstdint>

#include "common/sat_counter.hh"

using namespace vpir;

TEST(SatCounter, SaturatesHigh)
{
    uint8_t c = 0;
    for (int i = 0; i < 10; ++i)
        satIncrement(c, satMax(2));
    EXPECT_EQ(c, 3u);
    EXPECT_EQ(satMax(2), 3u);
}

TEST(SatCounter, SaturatesLow)
{
    uint8_t c = 3;
    for (int i = 0; i < 10; ++i)
        satDecrement(c);
    EXPECT_EQ(c, 0u);
}

TEST(SatCounter, IsSetAboveMidpoint)
{
    const unsigned max = satMax(2);
    uint8_t c = 0;
    EXPECT_FALSE(satUpperHalf(c, max));
    satIncrement(c, max); // 1
    EXPECT_FALSE(satUpperHalf(c, max));
    satIncrement(c, max); // 2
    EXPECT_TRUE(satUpperHalf(c, max));
    satIncrement(c, max); // 3
    EXPECT_TRUE(satUpperHalf(c, max));
}

/** A 3-bit count stepped up to 5 meets thresholds 0..5, not 6. */
TEST(SatCounter, AtLeastThreshold)
{
    uint16_t c = 0;
    for (int i = 0; i < 5; ++i)
        satIncrement(c, satMax(3));
    EXPECT_GE(c, 5u);
    EXPECT_GE(c, 0u);
    EXPECT_LT(c, 6u);
}

/** A count set back to a value (the VPT silences an instance by
 *  setting its count to 0) steps and saturates from there. */
TEST(SatCounter, ResetToValue)
{
    uint16_t c = 3;
    c = 1;
    satIncrement(c, satMax(2));
    EXPECT_EQ(c, 2u);
    c = 0;
    satDecrement(c);
    EXPECT_EQ(c, 0u);
}

/** Property: a counter never leaves [0, max] under random walks. */
TEST(SatCounter, StaysBoundedUnderRandomWalk)
{
    const unsigned max = satMax(3);
    uint16_t c = 4;
    uint64_t s = 12345;
    for (int i = 0; i < 10000; ++i) {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        if (s >> 63)
            satIncrement(c, max);
        else
            satDecrement(c);
        ASSERT_LE(c, max);
    }
}

class SatCounterWidth : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(SatCounterWidth, MaxMatchesWidth)
{
    unsigned bits = GetParam();
    const unsigned max = satMax(bits);
    EXPECT_EQ(max, (1u << bits) - 1);
    uint16_t c = 0;
    for (unsigned i = 0; i < max + 5; ++i)
        satIncrement(c, max);
    EXPECT_EQ(c, max);
}

INSTANTIATE_TEST_SUITE_P(Widths, SatCounterWidth,
                         ::testing::Values(1, 2, 3, 4, 8, 15));
