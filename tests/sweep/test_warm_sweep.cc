/**
 * @file
 * Warm-start sweep tests: a sweep's per-cell stats must be
 * bit-identical to cold cores that assemble the program and replay
 * the warmup themselves; and assembly and warmup must happen exactly
 * once per (workload, scale, warmup) key no matter how many cells
 * share it.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/warm_cache.hh"
#include "sweep/stats_json.hh"
#include "sweep/sweep.hh"

using namespace vpir;
using namespace vpir::sweep;

namespace
{

constexpr uint64_t TEST_INSTS = 20000;

/** Three configs x two workloads: six cells over two warm-start keys
 *  (all configs share the same warmup length). */
std::vector<SweepCell>
standardCells()
{
    WorkloadScale scale;
    scale.factor = 0.25;
    std::vector<CoreParams> cfgs = {
        baseConfig(),
        irConfig(),
        vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                 BranchResolution::Speculative, 0),
    };
    std::vector<SweepCell> cells;
    for (const std::string &w : {std::string("perl"),
                                 std::string("compress")}) {
        for (size_t i = 0; i < cfgs.size(); ++i) {
            CoreParams p = withLimits(cfgs[i], TEST_INSTS);
            p.warmupInsts = 2000;
            cells.push_back(
                SweepCell{w, "cfg" + std::to_string(i), p, scale});
        }
    }
    return cells;
}

std::vector<CoreStats>
runSweep(const std::vector<SweepCell> &cells, unsigned jobs)
{
    SweepEngine eng(jobs, "");
    for (const SweepCell &c : cells)
        eng.prefetch(c);
    eng.drain();
    std::vector<CoreStats> out;
    for (const SweepCell &c : cells)
        out.push_back(eng.get(c));
    EXPECT_TRUE(eng.failures().empty());
    return out;
}

TEST(WarmSweep, StatsMatchColdCores)
{
    std::vector<SweepCell> cells = standardCells();
    WarmStartCache::global().clear();
    std::vector<CoreStats> warm = runSweep(cells, 2);
    ASSERT_EQ(warm.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &c = cells[i];
        Simulator cold(c.params,
                       makeWorkload(c.workload, c.scale).program);
        EXPECT_TRUE(statsEqual(cold.run(), warm[i])) << "cell " << i;
        EXPECT_GT(warm[i].committedInsts, 0u) << "cell " << i;
    }
}

TEST(WarmSweep, BuildsExactlyOncePerKeyInProcess)
{
    WarmStartCache::global().clear();

    std::vector<SweepCell> cells = standardCells(); // 6 cells, 2 keys
    SweepEngine eng(2, "");
    for (const SweepCell &c : cells)
        eng.prefetch(c);
    eng.drain();

    WarmStartCache::Counters c = WarmStartCache::global().counters();
    EXPECT_EQ(c.programBuilds, 2u);
    EXPECT_EQ(c.snapshotBuilds, 2u);
    EXPECT_EQ(c.snapshotHits, 4u); // the other four cells cloned

    // Every cell has a phase breakdown.
    std::vector<CellTiming> ts = eng.timings();
    ASSERT_EQ(ts.size(), cells.size());
    for (const CellTiming &t : ts) {
        EXPECT_GT(t.runSeconds, 0.0);
        EXPECT_GE(t.wallSeconds, t.setupSeconds + t.runSeconds - 1e-3);
    }
}

} // anonymous namespace
