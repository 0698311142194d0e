/** @file Core tests: the hybrid VP+IR technique and warmup. */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "core/core.hh"
#include "sim/configs.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

/** A kernel with both reuse-friendly (invariant chain) and
 *  VP-only (in-flight ring chase) redundancy. */
Program
mixedKernel(int iters)
{
    Assembler a;
    a.dataLabel("ring");
    a.word(4);
    a.word(8);
    a.word(0);
    a.dataLabel("c");
    a.word(777);
    a.la(S0, "ring");
    a.la(S2, "c");
    a.li(S1, iters);
    a.li(T1, 0);
    a.label("loop");
    // VP-only part: serial dependent ring chase.
    a.add(T2, S0, T1);
    a.lw(T1, T2, 0);
    a.add(T2, S0, T1);
    a.lw(T1, T2, 0);
    // IR-friendly part: invariant chain.
    a.lw(T3, S2, 0);
    a.sll(T4, T3, 1);
    a.xor_(T5, T4, T3);
    a.addi(T6, T5, 9);
    // VP-only part: same result from ever-different operands (the
    // paper's §3.1 logical-operation case); IR's operand test can
    // never pass here.
    a.slti(T7, S1, 10000000);
    a.add(T8, T8, T7);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();
    return a.finish();
}

} // anonymous namespace

TEST(CoreHybrid, CapturesBothKindsOfRedundancy)
{
    Program p = mixedKernel(1500);
    Core hy(hybridConfig(), p);
    const CoreStats &st = hy.run();
    EXPECT_GT(st.reusedResults, st.committedInsts / 5);
    // The slti produces one IR-impossible (different-operand) correct
    // prediction per iteration.
    EXPECT_GT(st.vpResultCorrect, 1000u);
}

TEST(CoreHybrid, AtLeastAsFastAsEitherAlone)
{
    Program p = mixedKernel(1500);
    Core base(baseConfig(), p);
    Core vp(vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                     BranchResolution::Speculative, 0),
            p);
    Core ir(irConfig(), p);
    Core hy(hybridConfig(), p);
    uint64_t bc = base.run().cycles;
    uint64_t vc = vp.run().cycles;
    uint64_t ic = ir.run().cycles;
    uint64_t hc = hy.run().cycles;
    EXPECT_LT(hc, bc);
    // Small slack: the hybrid should be within a whisker of the best
    // single technique (and usually strictly better).
    EXPECT_LE(hc, std::min(vc, ic) * 102 / 100);
}

TEST(CoreHybrid, EndStateMatchesBase)
{
    Program p = mixedKernel(500);
    Core base(baseConfig(), p);
    Core hy(hybridConfig(), p);
    base.run();
    hy.run();
    EXPECT_TRUE(hy.stats().haltedCleanly);
    EXPECT_EQ(base.stats().committedInsts,
              hy.stats().committedInsts);
    for (unsigned r = 1; r < NUM_ARCH_REGS; ++r) {
        ASSERT_EQ(base.emuState().readReg(static_cast<RegId>(r)),
                  hy.emuState().readReg(static_cast<RegId>(r)));
    }
}

TEST(CoreHybrid, NsbSuppressesSpuriousSquashes)
{
    Program p = mixedKernel(1000);
    Core nsb(hybridConfig(VpScheme::Magic,
                          BranchResolution::NonSpeculative, 0),
             p);
    const CoreStats &st = nsb.run();
    EXPECT_EQ(st.spuriousSquashes, 0u);
}

TEST(CoreWarmup, SkipsInstructionsFunctionally)
{
    Program p = mixedKernel(1000);
    CoreParams cfg = baseConfig();
    Core plain(cfg, p);
    uint64_t full = plain.run().committedInsts;

    cfg.warmupInsts = 3000;
    Core warm(cfg, p);
    const CoreStats &st = warm.run();
    EXPECT_TRUE(st.haltedCleanly);
    EXPECT_EQ(st.committedInsts + 3000, full);
}

TEST(CoreWarmup, EndStateUnaffected)
{
    Program p = mixedKernel(800);
    CoreParams cfg = baseConfig();
    Core plain(cfg, p);
    cfg.warmupInsts = 2500;
    Core warm(cfg, p);
    plain.run();
    warm.run();
    for (unsigned r = 1; r < NUM_ARCH_REGS; ++r) {
        ASSERT_EQ(plain.emuState().readReg(static_cast<RegId>(r)),
                  warm.emuState().readReg(static_cast<RegId>(r)));
    }
}

TEST(CoreWarmup, SurvivesWarmupPastHalt)
{
    Program p = mixedKernel(50);
    CoreParams cfg = baseConfig();
    cfg.warmupInsts = 10000000; // beyond the whole program
    Core warm(cfg, p);
    const CoreStats &st = warm.run();
    // Warmup consumed everything; the timed run restarts at entry
    // and still terminates.
    EXPECT_TRUE(st.haltedCleanly);
}

TEST(CoreWarmup, CheckedRunSurvivesWarmupPastHalt)
{
    // The lockstep checker must start where the core does: at the
    // entry once the warmup has run the program to its end, whether
    // the core builds its start state or clones a shared snapshot.
    PanicThrowScope throws_; // a divergence must surface as SimError
    Program p = mixedKernel(50);
    CoreParams cfg = baseConfig();
    cfg.warmupInsts = 10000000; // beyond the whole program
    cfg.checkRetire = true;
    EmuSnapshot snap = makeWarmSnapshot(p, cfg.warmupInsts);
    ASSERT_TRUE(snap.halted);

    Core cold(cfg, p);
    Core warm(cfg, p, &snap);
    for (Core *core : {&cold, &warm}) {
        const char *which = core == &cold ? "cold" : "warm";
        CoreStats st;
        ASSERT_NO_THROW(st = core->run()) << which;
        EXPECT_TRUE(st.haltedCleanly) << which;
        EXPECT_GT(st.committedInsts, 0u) << which;
        EXPECT_EQ(st.checkedInsts, st.committedInsts) << which;
    }
}
