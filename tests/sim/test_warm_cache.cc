/**
 * @file
 * WarmStartCache tests: exactly-once builds with pointer-identity
 * hits, snapshots equivalent to a hand-run warmup, and end-to-end
 * stats identity between cores cloned from the cache and cold cores
 * that replay the warmup themselves.
 */

#include <gtest/gtest.h>

#include <string>

#include "emu/executor.hh"
#include "sim/simulator.hh"
#include "sim/warm_cache.hh"
#include "sweep/stats_json.hh"

using namespace vpir;

namespace
{

WorkloadScale
scaleOf(double f)
{
    WorkloadScale sc;
    sc.factor = f;
    return sc;
}

/** The cold reference: assemble the program and let the Core
 *  constructor replay the warmup, with no cache involved. */
CoreStats
runCold(const std::string &name, const CoreParams &params,
        const WorkloadScale &scale)
{
    Simulator sim(params, makeWorkload(name, scale).program);
    return sim.run();
}

TEST(WarmStartCache, ProgramBuiltOncePerKey)
{
    WarmStartCache &cache = WarmStartCache::global();
    cache.clear();

    auto w1 = cache.workload("perl", scaleOf(0.25));
    ASSERT_TRUE(w1);
    EXPECT_EQ(cache.counters().programBuilds, 1u);
    EXPECT_EQ(w1->name, "perl");

    auto w2 = cache.workload("perl", scaleOf(0.25));
    EXPECT_EQ(cache.counters().programBuilds, 1u);
    EXPECT_EQ(w1.get(), w2.get()); // the very same object, not a copy

    // A different scale is a different key.
    auto w3 = cache.workload("perl", scaleOf(0.5));
    EXPECT_EQ(cache.counters().programBuilds, 2u);
    EXPECT_NE(w1.get(), w3.get());

    WarmStartCache::Counters c = cache.counters();
    EXPECT_EQ(c.programBuilds, 2u);
    EXPECT_EQ(c.programHits, 1u);
}

TEST(WarmStartCache, SnapshotBuiltOncePerKey)
{
    WarmStartCache &cache = WarmStartCache::global();
    cache.clear();

    auto s1 = cache.snapshot("compress", scaleOf(0.25), 1000);
    ASSERT_TRUE(s1);
    EXPECT_EQ(cache.counters().snapshotBuilds, 1u);
    EXPECT_EQ(s1->warmupInsts, 1000u);

    auto s2 = cache.snapshot("compress", scaleOf(0.25), 1000);
    EXPECT_EQ(cache.counters().snapshotBuilds, 1u);
    EXPECT_EQ(s1.get(), s2.get());

    // A different warmup length is a different key over the same
    // program (which is only assembled once).
    auto s3 = cache.snapshot("compress", scaleOf(0.25), 2000);
    EXPECT_EQ(cache.counters().snapshotBuilds, 2u);
    EXPECT_NE(s1.get(), s3.get());

    WarmStartCache::Counters c = cache.counters();
    EXPECT_EQ(c.programBuilds, 1u);
    EXPECT_EQ(c.snapshotBuilds, 2u);
    EXPECT_EQ(c.snapshotHits, 1u);
}

TEST(WarmStartCache, SnapshotMatchesHandRunWarmup)
{
    WarmStartCache &cache = WarmStartCache::global();
    cache.clear();

    constexpr uint64_t WARMUP = 5000;
    auto cached = cache.snapshot("m88ksim", scaleOf(0.25), WARMUP);

    Workload w = makeWorkload("m88ksim", scaleOf(0.25));
    EmuSnapshot ref = makeWarmSnapshot(w.program, WARMUP);

    ASSERT_TRUE(cached);
    EXPECT_EQ(cached->pc, ref.pc);
    EXPECT_EQ(cached->halted, ref.halted);
    EXPECT_EQ(cached->warmupInsts, ref.warmupInsts);
    for (RegId r = 0; r < NUM_ARCH_REGS; ++r)
        ASSERT_EQ(cached->state.readReg(r), ref.state.readReg(r))
            << "register " << static_cast<int>(r);
    ASSERT_EQ(cached->state.residentPages(), ref.state.residentPages());
}

TEST(WarmStartCache, RunWorkloadMatchesColdCore)
{
    WarmStartCache &cache = WarmStartCache::global();
    cache.clear();

    CoreParams cfg = withLimits(baseConfig(), 20000);
    cfg.warmupInsts = 3000;

    CoreStats cold = runCold("perl", cfg, scaleOf(0.25));
    CoreStats warm1 = runWorkload("perl", cfg, scaleOf(0.25)); // builds
    CoreStats warm2 = runWorkload("perl", cfg, scaleOf(0.25)); // clones
    WarmStartCache::Counters c = cache.counters();
    EXPECT_EQ(c.snapshotBuilds, 1u);
    EXPECT_EQ(c.snapshotHits, 1u);
    EXPECT_TRUE(sweep::statsEqual(cold, warm1));
    EXPECT_TRUE(sweep::statsEqual(cold, warm2));
    EXPECT_GT(cold.committedInsts, 0u);
}

TEST(WarmStartCache, WarmCoreIdenticalWithCheckerOn)
{
    // The lockstep checker replays retirement against an independent
    // machine cloned from the same snapshot: a warm-start bug on
    // either side diverges immediately.
    WarmStartCache::global().clear();
    CoreParams cfg = withLimits(baseConfig(), 20000);
    cfg.warmupInsts = 3000;
    cfg.checkRetire = true;

    CoreStats cold = runCold("compress", cfg, scaleOf(0.25));
    CoreStats warm = runWorkload("compress", cfg, scaleOf(0.25));
    EXPECT_TRUE(sweep::statsEqual(cold, warm));
    EXPECT_GT(warm.committedInsts, 0u);
}

TEST(WarmStartCache, ClearResetsEverything)
{
    WarmStartCache &cache = WarmStartCache::global();
    cache.clear();
    auto w1 = cache.workload("perl", scaleOf(0.25));
    cache.clear();
    WarmStartCache::Counters c = cache.counters();
    EXPECT_EQ(c.programBuilds, 0u);
    auto w2 = cache.workload("perl", scaleOf(0.25));
    EXPECT_EQ(cache.counters().programBuilds, 1u); // rebuilt from scratch
    EXPECT_NE(w1.get(), w2.get());
}

} // anonymous namespace
