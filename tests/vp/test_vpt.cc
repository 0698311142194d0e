/** @file Unit tests for the value prediction table. */

#include <gtest/gtest.h>

#include "vp/vpt.hh"

using namespace vpir;

namespace
{

VptParams
magicParams()
{
    VptParams p;
    p.entries = 64;
    p.ways = 4;
    p.scheme = VpScheme::Magic;
    return p;
}

VptParams
lvpParams()
{
    VptParams p = magicParams();
    p.scheme = VpScheme::Lvp;
    return p;
}

/** Observe a value (no prediction made) n times. */
void
observe(Vpt &v, Addr pc, uint64_t value, int n = 1)
{
    for (int i = 0; i < n; ++i)
        v.update(pc, value, VptPrediction{});
}

} // anonymous namespace

TEST(VptMagic, ColdTableMakesNoPrediction)
{
    Vpt v(magicParams());
    EXPECT_FALSE(v.predict(0x1000, 42).valid);
}

TEST(VptMagic, SingleObservationIsNotEnough)
{
    Vpt v(magicParams());
    observe(v, 0x1000, 42);
    EXPECT_FALSE(v.predict(0x1000, 42).valid);
}

TEST(VptMagic, TwoObservationsEnableOraclePick)
{
    Vpt v(magicParams());
    observe(v, 0x1000, 42, 2);
    VptPrediction p = v.predict(0x1000, 42);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.value, 42u);
}

TEST(VptMagic, OracleSelectionAmongInstances)
{
    Vpt v(magicParams());
    // Four rotating values, each observed repeatedly.
    for (int round = 0; round < 4; ++round) {
        for (uint64_t val = 10; val < 14; ++val)
            observe(v, 0x1000, val);
    }
    EXPECT_EQ(v.instancesFor(0x1000), 4u);
    for (uint64_t val = 10; val < 14; ++val) {
        VptPrediction p = v.predict(0x1000, val);
        ASSERT_TRUE(p.valid);
        EXPECT_EQ(p.value, val); // picks the matching instance
    }
}

TEST(VptMagic, FallbackNeedsSaturatedConfidence)
{
    Vpt v(magicParams());
    observe(v, 0x1000, 42, 2);
    // Oracle value 43 absent; instance 42 only at confidence 1.
    EXPECT_FALSE(v.predict(0x1000, 43).valid);
    observe(v, 0x1000, 42, 2); // saturate
    VptPrediction p = v.predict(0x1000, 43);
    EXPECT_TRUE(p.valid);
    EXPECT_EQ(p.value, 42u); // confidently wrong (the paper's case)
}

TEST(VptMagic, WrongPredictionSilencesInstance)
{
    Vpt v(magicParams());
    observe(v, 0x1000, 42, 4);
    VptPrediction made = v.predict(0x1000, 43); // wrong fallback
    ASSERT_TRUE(made.valid);
    v.update(0x1000, 43, made); // trains 43, resets 42
    EXPECT_FALSE(v.predict(0x1000, 99).valid);
}

TEST(VptMagic, DistinctPCsDoNotInterfere)
{
    Vpt v(magicParams());
    observe(v, 0x1000, 1, 2);
    observe(v, 0x2000, 2, 2);
    EXPECT_EQ(v.predict(0x1000, 1).value, 1u);
    EXPECT_EQ(v.predict(0x2000, 2).value, 2u);
}

TEST(VptMagic, CapacityIsFourInstancesPerPC)
{
    Vpt v(magicParams());
    for (uint64_t val = 0; val < 8; ++val)
        observe(v, 0x1000, val);
    EXPECT_EQ(v.instancesFor(0x1000), 4u);
}

TEST(VptLvp, PredictsLastValueAfterConfidence)
{
    Vpt v(lvpParams());
    observe(v, 0x1000, 7, 3);
    VptPrediction p = v.predict(0x1000, 999 /* oracle unused */);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, 7u);
}

TEST(VptLvp, OneInstancePerPC)
{
    Vpt v(lvpParams());
    observe(v, 0x1000, 7, 3);
    observe(v, 0x1000, 8); // replaces the value
    EXPECT_EQ(v.instancesFor(0x1000), 1u);
    // Confidence decayed on change; rebuild it, then 8 is predicted.
    observe(v, 0x1000, 8, 3);
    EXPECT_EQ(v.predict(0x1000, 0).value, 8u);
}

TEST(VptLvp, OracleDoesNotLeakIntoLvp)
{
    Vpt v(lvpParams());
    observe(v, 0x1000, 7, 3);
    // Even when the oracle says 8, LVP must offer its last value 7.
    VptPrediction p = v.predict(0x1000, 8);
    ASSERT_TRUE(p.valid);
    EXPECT_EQ(p.value, 7u);
}

TEST(VptLvp, AlternatingValuesStayUnconfident)
{
    Vpt v(lvpParams());
    for (int i = 0; i < 50; ++i)
        observe(v, 0x1000, i % 2);
    // Every update flips the value, so confidence never builds.
    EXPECT_FALSE(v.predict(0x1000, 0).valid);
}

TEST(VptMagic, AlternatingValuesArePredictable)
{
    // The key VP_Magic vs VP_LVP difference the paper leans on: with
    // oracle selection, a small set of alternating values is fully
    // predictable.
    Vpt v(magicParams());
    for (int i = 0; i < 8; ++i)
        observe(v, 0x1000, i % 2);
    for (int i = 0; i < 8; ++i) {
        VptPrediction p = v.predict(0x1000, i % 2);
        ASSERT_TRUE(p.valid);
        EXPECT_EQ(p.value, static_cast<uint64_t>(i % 2));
    }
}

/** Replacement is LRU over every touch of an instance: its insert,
 *  a confidence update, and an oracle-hit prediction. */
TEST(VptMagic, EvictsLeastRecentlyUsedInstance)
{
    Vpt v(magicParams());
    for (uint64_t val = 10; val < 14; ++val)
        observe(v, 0x1000, val, 2); // four instances at confidence 1
    observe(v, 0x1000, 10);         // update re-touches the oldest
    observe(v, 0x1000, 14);         // evicts 11
    EXPECT_FALSE(v.predict(0x1000, 11).valid);
    EXPECT_TRUE(v.predict(0x1000, 12).valid); // prediction re-touches 12
    observe(v, 0x1000, 15);                   // evicts 13
    EXPECT_EQ(v.instancesFor(0x1000), 4u);
    EXPECT_FALSE(v.predict(0x1000, 13).valid);
    EXPECT_TRUE(v.predict(0x1000, 12).valid);
    EXPECT_TRUE(v.predict(0x1000, 10).valid);
}

TEST(VptLvp, EvictsLeastRecentlyUsedPc)
{
    Vpt v(lvpParams());
    // pc >> 2 is a multiple of 4096, so every term foldPC XORs has
    // zero low bits: all five PCs index set 0 of the 16-set table.
    const Addr pc[5] = {0x4000, 0x8000, 0xc000, 0x10000, 0x14000};
    for (int i = 0; i < 4; ++i)
        observe(v, pc[i], 1);
    v.predict(pc[0], 0); // a prediction lookup re-touches pc[0]
    observe(v, pc[1], 1); // so does an update of pc[1]
    observe(v, pc[4], 1); // evicts pc[2], now least recently used
    EXPECT_EQ(v.instancesFor(pc[2]), 0u);
    for (int i : {0, 1, 3, 4})
        EXPECT_EQ(v.instancesFor(pc[i]), 1u) << i;
}
