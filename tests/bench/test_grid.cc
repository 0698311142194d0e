/**
 * @file
 * Grid tests: a harness's grids run as one batch on their first read,
 * each cell holds exactly what a direct run of its (workload, config)
 * gives, and a read outside the grid panics instead of running a
 * stray cell. The sweep engine is process-wide, so cell counts are
 * differences and each test uses workloads the others do not.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/logging.hh"
#include "sweep/stats_json.hh"

using namespace vpir;
using namespace vpir::bench;

namespace
{

/** A Runner at a 2,000-instruction budget whose timing report goes to
 *  a per-test file in the test temp directory. */
Runner
shortRunner()
{
    ::setenv("VPIR_BENCH_INSTS", "2000", 1);
    ::unsetenv("VPIR_RESULT_CACHE");
    std::string json =
        ::testing::TempDir() + "vpir_grid_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".json";
    ::setenv("VPIR_TIMING_JSON", json.c_str(), 1);
    return Runner();
}

} // anonymous namespace

TEST(Grid, FirstReadRunsEveryQueuedCell)
{
    Runner runner = shortRunner();
    sweep::SweepEngine &eng = sweep::SweepEngine::global();
    eng.drain(); // anything queued earlier runs now, not below
    const size_t before = eng.cellsComputed();

    const std::vector<std::string> names = {"compress", "ijpeg"};
    const Config ir{"ir", irConfig()};
    const Grid a = runner.grid({{"base", baseConfig()}, ir}, names);
    const Grid b = runner.grid(
        {ir, {"ir-late", irConfig(IrValidation::Late)}}, names);
    EXPECT_EQ(eng.cellsComputed(), before); // queued, not run

    a.at("compress", 0);
    // Three distinct configs over two workloads; the shared IR
    // column is simulated once.
    EXPECT_EQ(eng.cellsComputed() - before, 6u);
    b.at("ijpeg", 1);
    EXPECT_EQ(eng.cellsComputed() - before, 6u); // no second batch
}

TEST(Grid, CellMatchesDirectRun)
{
    Runner runner = shortRunner();
    const std::vector<std::string> names = {"perl", "m88ksim"};
    const std::vector<Config> configs = {
        {"base", baseConfig()},
        {"vp", vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                        BranchResolution::Speculative, 0)},
        {"ir", irConfig()}};
    const Grid g = runner.grid(configs, names);
    for (const std::string &w : names) {
        for (size_t c = 0; c < configs.size(); ++c) {
            CoreStats direct = runWorkload(
                w, withLimits(configs[c].params, runner.instLimit()),
                benchScale());
            EXPECT_TRUE(sweep::statsEqual(g.at(w, c), direct))
                << w << " / " << configs[c].label;
        }
    }
}

TEST(Grid, ReadOutsideGridPanics)
{
    Runner runner = shortRunner();
    const Grid g =
        runner.grid({{"base", baseConfig()}, {"ir", irConfig()}}, {"go"});
    PanicThrowScope throws;
    EXPECT_THROW(g.at("vortex", 0), SimError);
    EXPECT_THROW(g.at("go", 2), SimError);
}
