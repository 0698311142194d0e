/**
 * @file
 * Closed-form timing: directed microprograms whose cycle counts are
 * derived by hand from the paper's Table 1 machine and its rules, not
 * from the core's code. Every run arms the per-cycle audit and the
 * retire checker. A test pins the cycles that K extra loop iterations
 * add, so the start-up (cold caches, untrained predictors) and the
 * loop exit cancel out of the difference.
 */

#include <gtest/gtest.h>

#include "asm/assembler.hh"
#include "core/core.hh"
#include "sim/configs.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

/** A loop whose body is @p d dependent `addi t0, t0, 0` links, then
 *  the counter decrement and its `bgtz`, run @p iters times. */
Program
predictedChain(unsigned d, int iters)
{
    Assembler a;
    a.li(S1, iters);
    a.li(T0, 0);
    a.label("loop");
    for (unsigned i = 0; i < d; ++i)
        a.addi(T0, T0, 0);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();
    return a.finish();
}

/** Cycles of a halting run of predictedChain(@p d, @p iters) on the
 *  VP_Magic ME-SB machine at verify latency @p lat. */
uint64_t
chainCycles(unsigned d, int iters, unsigned lat)
{
    CoreParams cfg = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                              BranchResolution::Speculative, lat);
    cfg.auditInvariants = true;
    cfg.checkRetire = true;
    const Program prog = predictedChain(d, iters); // Core keeps a ref
    Core core(cfg, prog);
    const CoreStats &st = core.run();
    EXPECT_TRUE(st.haltedCleanly);
    EXPECT_EQ(st.checkedInsts, st.committedInsts);
    return st.cycles;
}

TEST(Timing, PredictedChainFinalizesOneVerifyLatencyPerLink)
{
    // Paper §4.1.4: a predicted result is verified once its
    // instruction has executed with final operands, and verification
    // takes L cycles, so a dependant of a predicted value may finalize
    // only L cycles after its producer did (L = 0 or 1 in Figs 6-7;
    // 2 and 3 here as well).
    //
    // Each link computes 0, the value the previous link was
    // predicted to produce, so VP_Magic predicts every link correctly
    // once it has seen the value twice. A link then reads its operand
    // at dispatch and executes the next cycle: execution never waits
    // on the chain. Finalization does. Link i may finalize only once
    // its operand is final, which is L cycles after link i - 1
    // finalized: f(i) = f(i - 1) + L. The counter never repeats a
    // value, so it is never predicted: it finalizes as it executes,
    // and its branch resolves off the chain. Commit retires in order
    // once each value is final. One iteration's D links therefore
    // cost D x L cycles, and K iterations K x D x L, as long as that
    // is more than the fetch bound below (so for every L >= 1 here)
    // and the 32-entry window holds a whole iteration (D + 2 <= 14
    // instructions).
    //
    // At L = 0, verification takes no time: a chain of links whose
    // operands are final finalizes in one finalize pass, and the
    // front end sets the pace. Fetch takes at most 4 instructions a
    // cycle, never across a 32-byte I-cache line, and stops after
    // the predicted-taken loop branch, so each iteration starts a
    // fresh fetch at the loop head. The loop starts two words into a
    // line (after two `li`), so the 10-instruction body at D = 8
    // takes 6 + 4 instructions from two lines, 2 + 1 = 3 cycles, and
    // the 14-instruction body at D = 12 takes 6 + 8, 2 + 2 = 4
    // cycles. Dispatch, issue and commit are 4 wide and keep up.
    struct Chain
    {
        unsigned d;
        uint64_t fetchCycles; //!< per iteration, derived above
    };
    const int n = 32;
    const int k = 32;
    for (Chain c : {Chain{8, 3}, Chain{12, 4}}) {
        // The fetch bound assumes the layout: the loop branch, just
        // before the halt, targets a head two words into a line.
        Program p = predictedChain(c.d, n);
        ASSERT_EQ(p.text[p.text.size() - 2].target, p.textBase + 8);
        ASSERT_EQ(p.textBase % 32, 0u);
        for (unsigned lat = 0; lat <= 3; ++lat) {
            uint64_t per_iter = lat == 0 ? c.fetchCycles
                                         : uint64_t{c.d} * lat;
            uint64_t extra = chainCycles(c.d, n + k, lat) -
                             chainCycles(c.d, n, lat);
            EXPECT_EQ(extra, k * per_iter)
                << "D = " << c.d << ", L = " << lat;
        }
    }
}

} // anonymous namespace
