/**
 * @file
 * Lockstep checker tests: every paper configuration must retire a
 * divergence-free instruction stream on every workload (the checker
 * re-executes each retired instruction on an independent functional
 * machine), and the commit-progress watchdog must convert a stuck
 * pipeline, or a core with nothing left to wait for, into a
 * catchable, attributable error.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "sim/simulator.hh"
#include "workload/workload.hh"
#include "workload/wregs.hh"

using namespace vpir;

namespace
{

constexpr uint64_t TEST_INSTS = 15000;

CoreStats
runChecked(const std::string &workload, CoreParams p)
{
    p = withLimits(p, TEST_INSTS);
    p.checkRetire = true;
    WorkloadScale scale;
    scale.factor = 0.25;
    Workload w = makeWorkload(workload, scale);
    Simulator sim(p, std::move(w.program));
    return sim.run();
}

struct NamedConfig
{
    const char *name;
    CoreParams params;
};

std::vector<NamedConfig>
allConfigs()
{
    return {
        {"base", baseConfig()},
        {"vp-magic", vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                              BranchResolution::Speculative, 0)},
        {"vp-lvp", vpConfig(VpScheme::Lvp, ReexecPolicy::Multiple,
                            BranchResolution::Speculative, 0)},
        {"ir", irConfig()},
        {"hybrid", hybridConfig()},
    };
}

TEST(LockstepChecker, AllWorkloadsAllTechniquesRetireClean)
{
    PanicThrowScope throws_; // a divergence must surface as SimError
    for (const auto &name : workloadNames()) {
        for (const NamedConfig &cfg : allConfigs()) {
            CoreStats st;
            ASSERT_NO_THROW(st = runChecked(name, cfg.params))
                << name << "/" << cfg.name;
            // Every committed instruction was independently verified.
            EXPECT_EQ(st.checkedInsts, st.committedInsts)
                << name << "/" << cfg.name;
            EXPECT_GT(st.checkedInsts, 0u) << name << "/" << cfg.name;
        }
    }
}

TEST(LockstepChecker, CleanWithWarmupFastForward)
{
    PanicThrowScope throws_;
    CoreParams p = irConfig();
    p.warmupInsts = 5000; // checker must replay the same fast-forward
    CoreStats st;
    ASSERT_NO_THROW(st = runChecked("compress", p));
    EXPECT_EQ(st.checkedInsts, st.committedInsts);
    EXPECT_GT(st.checkedInsts, 0u);
}

TEST(Watchdog, StuckPipelineRaisesRecoverableError)
{
    PanicThrowScope throws_;
    CoreParams p = withLimits(baseConfig(), TEST_INSTS);
    p.watchdogCycles = 1; // nothing commits in the very first cycle
    WorkloadScale scale;
    scale.factor = 0.25;
    Workload w = makeWorkload("compress", scale);
    Simulator sim(p, std::move(w.program));
    try {
        sim.run();
        FAIL() << "watchdog did not fire";
    } catch (const SimError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
        EXPECT_NE(msg.find("fetchPC"), std::string::npos) << msg;
    }
}

TEST(Watchdog, WedgedCoreFailsWithNoLimitArmed)
{
    // A jump off the text segment with no HALT: fetch stops, and no
    // event, wake hint or work is left that could ever restart it.
    // With no watchdog and an unbounded cycle budget (a bench or
    // vpirsim cell), the run must fail with the watchdog's dump, not
    // report a success of 2^64-1 cycles.
    PanicThrowScope throws_;
    Assembler a;
    a.li(wreg::T0, 0x9000);
    a.jr(wreg::T0);
    Program prog = a.finish();
    CoreParams p = withLimits(baseConfig(), 400000);
    ASSERT_EQ(p.watchdogCycles, 0u);
    Core core(p, prog);
    try {
        core.run();
        FAIL() << "wedged core reported " << core.stats().cycles
               << " cycles";
    } catch (const SimError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("watchdog: nothing is pending"),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("committed 2, fetchPC 0x9000 (fetch halted)"),
                  std::string::npos)
            << msg;
    }
}

TEST(Watchdog, QuietWhileInstructionsCommit)
{
    PanicThrowScope throws_;
    CoreParams p = baseConfig();
    // Generous limit: commits happen every few cycles, so a healthy
    // run must never trip it.
    p.watchdogCycles = 10000;
    CoreStats st;
    ASSERT_NO_THROW(st = runChecked("m88ksim", p));
    EXPECT_GT(st.committedInsts, 0u);
}

} // anonymous namespace
