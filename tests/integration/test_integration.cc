/**
 * @file
 * Cross-module integration tests.
 *
 * The strongest oracle in the repository: VP and IR are
 * performance-only techniques, so for any program and any
 * configuration the committed instruction stream and the final
 * architectural state must be bit-identical to the base machine's.
 * We check that for every workload under every technique knob.
 */

#include <gtest/gtest.h>

#include "emu/executor.hh"
#include "redundancy/redundancy.hh"
#include "sim/simulator.hh"

using namespace vpir;

namespace
{

/** Checksum registers + the initialised data segment. */
uint64_t
stateChecksum(EmuState &st, const Program &p)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (unsigned r = 1; r < NUM_ARCH_REGS; ++r)
        mix(st.readReg(static_cast<RegId>(r)));
    for (const auto &[base, seg] : p.dataInit) {
        for (size_t off = 0; off < seg.size(); off += 4) {
            mix(st.readMem(base + static_cast<Addr>(off), 4));
        }
    }
    return h;
}

struct RunResult
{
    uint64_t checksum;
    uint64_t committed;
    bool halted;
};

RunResult
runConfig(const Program &p, const CoreParams &params)
{
    Simulator sim(params, p);
    const CoreStats &st = sim.run();
    return RunResult{stateChecksum(sim.core().emuState(), p),
                     st.committedInsts, st.haltedCleanly};
}

/** Reference: pure functional execution to halt. */
RunResult
runFunctional(const Program &p)
{
    EmuState st;
    Emulator emu(p, st);
    Emulator::loadProgram(p, st);
    uint64_t n = 0;
    while (!emu.halted() && n < 50000000) {
        emu.step();
        st.retire(st.mark());
        ++n;
    }
    // n already counts the final HALT step.
    return RunResult{stateChecksum(st, p), n, emu.halted()};
}

std::vector<CoreParams>
allConfigs()
{
    std::vector<CoreParams> v;
    v.push_back(baseConfig());
    v.push_back(irConfig(IrValidation::Early));
    v.push_back(irConfig(IrValidation::Late));
    for (auto scheme : {VpScheme::Magic, VpScheme::Lvp}) {
        for (auto re : {ReexecPolicy::Multiple, ReexecPolicy::Single}) {
            for (auto br : {BranchResolution::Speculative,
                            BranchResolution::NonSpeculative}) {
                for (unsigned lat : {0u, 1u}) {
                    v.push_back(vpConfig(scheme, re, br, lat));
                }
            }
        }
    }
    return v;
}

} // anonymous namespace

class EquivalenceSuite : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EquivalenceSuite, AllConfigsCommitTheSameProgram)
{
    WorkloadScale sc;
    sc.factor = 0.01;
    Workload w = makeWorkload(GetParam(), sc);
    RunResult ref = runFunctional(w.program);
    ASSERT_TRUE(ref.halted);

    for (const CoreParams &cfg : allConfigs()) {
        RunResult r = runConfig(w.program, cfg);
        ASSERT_TRUE(r.halted);
        EXPECT_EQ(r.committed, ref.committed)
            << "technique " << static_cast<int>(cfg.technique);
        EXPECT_EQ(r.checksum, ref.checksum)
            << "technique " << static_cast<int>(cfg.technique);
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, EquivalenceSuite,
                         ::testing::ValuesIn(workloadNames()));

TEST(Integration, RunWorkloadHelper)
{
    WorkloadScale sc;
    sc.factor = 0.01;
    CoreStats st = runWorkload("perl", baseConfig(), sc);
    EXPECT_TRUE(st.haltedCleanly);
    EXPECT_GT(st.ipc(), 0.2);
}

TEST(Integration, TechniquesChangeTimingNotSemantics)
{
    WorkloadScale sc;
    sc.factor = 0.02;
    Workload w = makeWorkload("m88ksim", sc);
    RunResult base = runConfig(w.program, baseConfig());
    RunResult ir = runConfig(w.program, irConfig());
    Simulator sim_ir(irConfig(), w.program);
    const CoreStats &ist = sim_ir.run();
    EXPECT_EQ(base.checksum, ir.checksum);
    EXPECT_GT(ist.reusedResults, 0u);
}

TEST(Integration, RedundancyAnalyzerRunsOnWorkloads)
{
    WorkloadScale sc;
    sc.factor = 0.02;
    for (const auto &name : workloadNames()) {
        Workload w = makeWorkload(name, sc);
        RedundancyParams params;
        params.maxInsts = 50000;
        RedundancyStats st = analyzeRedundancy(w.program, params);
        EXPECT_GT(st.resultProducing, 10000u) << name;
        EXPECT_EQ(st.unique + st.repeated + st.derivable +
                      st.unaccounted,
                  st.resultProducing)
            << name;
    }
}
