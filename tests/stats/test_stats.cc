/** @file Unit tests for the summary helpers. */

#include <gtest/gtest.h>

#include "stats/stats.hh"

using namespace vpir;

TEST(Means, HarmonicMean)
{
    EXPECT_DOUBLE_EQ(harmonicMean({1.0, 1.0}), 1.0);
    EXPECT_NEAR(harmonicMean({1.0, 2.0}), 4.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(harmonicMean({}), 0.0);
    EXPECT_DOUBLE_EQ(harmonicMean({2.0, 0.0}), 0.0);
}

TEST(Means, HarmonicLeqArithmetic)
{
    std::vector<double> v = {0.9, 1.3, 2.7, 1.1, 0.4};
    double sum = 0.0;
    for (double x : v)
        sum += x;
    EXPECT_LE(harmonicMean(v), sum / static_cast<double>(v.size()));
}

TEST(Means, PctAndRatio)
{
    EXPECT_DOUBLE_EQ(pct(1, 4), 25.0);
    EXPECT_DOUBLE_EQ(pct(1, 0), 0.0);
    EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
    EXPECT_DOUBLE_EQ(ratio(3, 0), 0.0);
}
