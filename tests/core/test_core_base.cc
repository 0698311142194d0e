/** @file Core tests: base superscalar behaviour and correctness. */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "asm/assembler.hh"
#include "core/core.hh"
#include "sim/configs.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

// The core, the emulator and the lockstep checker keep a reference to
// their Program, so each takes an lvalue and refuses a temporary.
static_assert(std::is_constructible_v<Core, const CoreParams &, Program &>);
static_assert(!std::is_constructible_v<Core, const CoreParams &, Program>);
static_assert(std::is_constructible_v<Emulator, Program &, EmuState &>);
static_assert(!std::is_constructible_v<Emulator, Program, EmuState &>);
static_assert(std::is_constructible_v<LockstepChecker, Program &,
                                      const EmuSnapshot &>);
static_assert(!std::is_constructible_v<LockstepChecker, Program,
                                       const EmuSnapshot &>);

namespace
{

/** N-instruction serial dependent chain of 1-cycle adds + halt. */
Program
serialChain(int n)
{
    Assembler a;
    a.li(T0, 1);
    for (int i = 0; i < n; ++i)
        a.add(T0, T0, T0);
    a.halt();
    return a.finish();
}

/** N independent 1-cycle adds + halt. */
Program
independentAdds(int n)
{
    Assembler a;
    for (int i = 0; i < n; ++i)
        a.addi(static_cast<RegId>(1 + (i % 24)), ZERO, i);
    a.halt();
    return a.finish();
}

uint64_t
runCycles(const Program &p)
{
    Core c(baseConfig(), p);
    return c.run().cycles;
}

} // anonymous namespace

TEST(CoreBase, HaltsCleanly)
{
    Program p = serialChain(4);
    Core c(baseConfig(), p);
    const CoreStats &st = c.run();
    EXPECT_TRUE(st.haltedCleanly);
    EXPECT_EQ(st.committedInsts, 6u); // li + 4 adds + halt
}

TEST(CoreBase, SerialChainIsLatencyBound)
{
    // In steady state (warm icache), a serial chain of adds retires
    // ~1 per cycle while independent adds retire several per cycle.
    auto loop = [](bool serial) {
        Assembler a;
        a.li(S1, 200);
        a.li(T0, 1);
        a.label("loop");
        for (int i = 0; i < 16; ++i) {
            if (serial)
                a.add(T0, T0, T0);
            else
                a.addi(static_cast<RegId>(8 + (i % 8)), ZERO, i);
        }
        a.addi(S1, S1, -1);
        a.bgtz(S1, "loop");
        a.halt();
        return a.finish();
    };
    Program sp = loop(true);
    Program ip = loop(false);
    uint64_t serial = runCycles(sp);
    uint64_t indep = runCycles(ip);
    EXPECT_GE(serial, 200u * 16u);
    EXPECT_LT(indep, serial * 2 / 3);
}

TEST(CoreBase, IpcNeverExceedsMachineWidth)
{
    // A tight loop of independent work, long enough to amortise the
    // cold icache misses.
    Assembler a;
    a.li(S1, 500);
    a.label("loop");
    for (int i = 0; i < 12; ++i)
        a.addi(static_cast<RegId>(8 + (i % 8)), ZERO, i);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();
    Program p = a.finish();
    Core c(baseConfig(), p);
    const CoreStats &st = c.run();
    EXPECT_LE(st.ipc(), 4.0);
    EXPECT_GT(st.ipc(), 1.2);
}

TEST(CoreBase, MaxCyclesStopsRun)
{
    Assembler a;
    a.label("spin");
    a.j("spin");
    Program p = a.finish();
    Core c(withLimits(baseConfig(), UINT64_MAX, 500), p);
    const CoreStats &st = c.run();
    EXPECT_FALSE(st.haltedCleanly);
    EXPECT_EQ(st.cycles, 500u);
}

TEST(CoreBase, MaxInstsStopsRun)
{
    Assembler a;
    a.label("spin");
    a.addi(T0, T0, 1);
    a.j("spin");
    Program p = a.finish();
    Core c(withLimits(baseConfig(), 1000, UINT64_MAX), p);
    const CoreStats &st = c.run();
    EXPECT_GE(st.committedInsts, 1000u);
    EXPECT_LT(st.committedInsts, 1010u);
}

TEST(CoreBase, ZeroBudgetRunsNothing)
{
    // A budget of 0 instructions or 0 cycles allows no work at all,
    // not one cycle or one commit before the limit is checked.
    Program p = serialChain(8);
    for (auto [insts, cycles] : {std::pair<uint64_t, uint64_t>{0, UINT64_MAX},
                                 {UINT64_MAX, 0}}) {
        Core c(withLimits(baseConfig(), insts, cycles), p);
        const CoreStats &st = c.run();
        EXPECT_EQ(st.committedInsts, 0u);
        EXPECT_EQ(st.cycles, 0u);
    }
}

TEST(CoreBase, MultiplyLatencyVisible)
{
    // A chain of dependent multiplies pays 3 cycles each.
    Assembler a;
    a.li(T0, 3);
    for (int i = 0; i < 16; ++i) {
        a.mult(T0, T0);
        a.mflo(T0);
    }
    a.halt();
    uint64_t mul_cycles = runCycles(a.finish());
    uint64_t add_cycles = runCycles(serialChain(32));
    EXPECT_GT(mul_cycles, add_cycles + 16);
}

TEST(CoreBase, StoreLoadForwardingIsCorrect)
{
    Assembler a;
    a.dataLabel("x");
    a.space(8);
    a.la(T0, "x");
    a.li(T1, 1234);
    a.sw(T1, T0, 0);
    a.lw(T2, T0, 0);   // must see the in-flight store's value
    a.addi(T2, T2, 1);
    a.la(T3, "x");
    a.sw(T2, T3, 4);
    a.halt();
    Program p = a.finish();
    Core c(baseConfig(), p);
    const CoreStats &st = c.run();
    EXPECT_TRUE(st.haltedCleanly);
    EXPECT_EQ(c.emuState().readMem(0x100000 + 4, 4), 1235u);
}

TEST(CoreBase, BranchyLoopCommitsExactStream)
{
    // Sum 1..100 via a loop; the final memory cell is the oracle.
    Assembler a;
    a.dataLabel("out");
    a.space(4);
    a.li(T0, 100);
    a.li(T1, 0);
    a.label("loop");
    a.add(T1, T1, T0);
    a.addi(T0, T0, -1);
    a.bgtz(T0, "loop");
    a.la(T2, "out");
    a.sw(T1, T2, 0);
    a.halt();
    Program p = a.finish();
    Core c(baseConfig(), p);
    const CoreStats &st = c.run();
    EXPECT_TRUE(st.haltedCleanly);
    EXPECT_EQ(st.committedInsts, 2u + 300u + 3u);
    EXPECT_EQ(c.emuState().readMem(0x100000, 4), 5050u);
}

TEST(CoreBase, UnpredictableBranchesCostCycles)
{
    // Branch on the low bit of an LCG-ish sequence vs a never-taken
    // branch; the unpredictable version must be slower.
    auto build = [](bool random) {
        Assembler a;
        a.li(S0, 12345);
        a.li(S1, 400);
        a.li(S2, 1103515245 & 0xffff);
        a.label("loop");
        if (random) {
            a.mult(S0, S2);
            a.mflo(S0);
            a.addi(S0, S0, 12345);
            a.srl(T0, S0, 9);
            a.andi(T0, T0, 1);
        } else {
            a.mult(S0, S2);
            a.mflo(S0);
            a.addi(S0, S0, 12345);
            a.li(T0, 0);
            a.nop();
        }
        a.beq(T0, ZERO, "skip");
        a.addi(T1, T1, 1);
        a.label("skip");
        a.addi(S1, S1, -1);
        a.bgtz(S1, "loop");
        a.halt();
        return a.finish();
    };
    Program random_p = build(true);
    Program biased_p = build(false);
    Core cr(baseConfig(), random_p);
    Core cb(baseConfig(), biased_p);
    const CoreStats &sr = cr.run();
    const CoreStats &sb = cb.run();
    EXPECT_GT(sr.condMispredicted, sb.condMispredicted + 50);
    EXPECT_GT(sr.cycles, sb.cycles);
    EXPECT_GT(sr.branchSquashes, 50u);
}

TEST(CoreBase, IcacheMissesOnLargeCodeFootprint)
{
    // A long straight-line code sequence larger than a few lines must
    // produce icache activity.
    Program p = independentAdds(600);
    Core c(baseConfig(), p);
    const CoreStats &st = c.run();
    EXPECT_GT(st.icacheAccesses, 0u);
    EXPECT_GT(st.icacheMisses, 10u);
}

TEST(CoreBase, DcacheMissLatencyVisible)
{
    // A serial pointer chase (each load's address depends on the
    // previous load): distinct-line strides put the 6-cycle miss on
    // the critical path; a self-loop pointer stays in one line.
    auto build = [](bool big) {
        Assembler a;
        a.dataLabel("arr");
        // next[i] = (i + 32) mod footprint, stored at each slot, so
        // the loaded value IS the next offset.
        for (unsigned i = 0; i < 8192 * 32 / 4; ++i) {
            unsigned off = (i * 4 + 32) % (8192 * 32);
            a.word(big ? off : (i * 4 / 32) * 32); // self-line loop
        }
        a.la(T0, "arr");
        a.li(T1, 3000);
        a.li(T2, 0);
        a.label("loop");
        a.add(T3, T0, T2);
        a.lw(T2, T3, 0); // serial: address of the next load
        a.addi(T1, T1, -1);
        a.bgtz(T1, "loop");
        a.halt();
        return a.finish();
    };
    Program big_p = build(true);
    Program small_p = build(false);
    Core cb(baseConfig(), big_p);
    Core cs(baseConfig(), small_p);
    uint64_t big_cycles = cb.run().cycles;
    uint64_t small_cycles = cs.run().cycles;
    EXPECT_GT(cb.stats().dcacheMisses, 2000u);
    EXPECT_GT(big_cycles, small_cycles + 3000);
}

TEST(CoreBase, CallsAndReturnsPredictPerfectlyInSteadyState)
{
    Assembler a;
    a.li(S0, 200);
    a.label("loop");
    a.jal("leaf");
    a.addi(S0, S0, -1);
    a.bgtz(S0, "loop");
    a.halt();
    a.label("leaf");
    a.addi(T0, T0, 1);
    a.jr(RA);
    Program p = a.finish();
    Core c(baseConfig(), p);
    const CoreStats &st = c.run();
    EXPECT_EQ(st.returns, 200u);
    EXPECT_LE(st.returnMispredicted, 2u);
}

TEST(CoreBase, ExecCountHistogramAllOnesWithoutVP)
{
    Program p = serialChain(50);
    Core c(baseConfig(), p);
    const CoreStats &st = c.run();
    EXPECT_GT(st.execCountHist[0], 0u);
    EXPECT_EQ(st.execCountHist[1], 0u); // nothing re-executes
    EXPECT_EQ(st.execCountHist[2], 0u);
}
